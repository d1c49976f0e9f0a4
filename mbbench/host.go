package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the context printed with every run, so a spread in wall_s
// can be told apart from a program change: on a shared VM the
// hypervisor steals CPU time that shows in wall time but not in cpu_s.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StoreFS    string  `json:"store_fs,omitempty"`
	StealS     float64 `json:"steal_s"` // CPU steal over the timed phases, all CPUs summed
}

func newHostInfo() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// userHZ is the kernel's clock-tick rate for /proc/stat; Linux fixes it
// at 100 for every architecture it exports to user space.
const userHZ = 100

// stealSeconds reads the cumulative CPU steal time of all CPUs from the
// aggregate line of /proc/stat. It returns 0 where the file or the
// field is missing (non-Linux, old kernels).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / userHZ
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssSampler tracks the peak resident set of the process over one timed
// phase by reading /proc/self/statm every rssEvery. ru_maxrss would give
// the peak of the whole process lifetime instead, set by whichever round
// happened to peak highest.
type rssSampler struct {
	quit chan struct{}
	peak chan float64
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		// One open file and buffer for the whole phase, so sampling
		// adds nothing to the alloc_mb it runs beside.
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			<-s.quit
			s.peak <- 0
			return
		}
		defer f.Close()
		buf := make([]byte, 128)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMiB(f, buf)
		for {
			select {
			case <-s.quit:
				s.peak <- max(peak, residentMiB(f, buf))
				return
			case <-t.C:
				peak = max(peak, residentMiB(f, buf))
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.peak
}

// residentMiB reads the process's current resident set from statm, the
// open /proc/self/statm, into buf; it returns 0 on a read it cannot
// parse.
func residentMiB(statm *os.File, buf []byte) float64 {
	n, err := statm.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return 0
	}
	// "size resident shared ...", in pages.
	_, rest, _ := bytes.Cut(buf[:n], []byte{' '})
	field, _, _ := bytes.Cut(rest, []byte{' '})
	var pages uint64
	for _, c := range field {
		if c < '0' || c > '9' {
			return 0
		}
		pages = pages*10 + uint64(c-'0')
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
}

// fsMagic names the statfs(2) magic numbers of the filesystems a store
// directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x01021997: "9p",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
