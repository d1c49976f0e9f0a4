// Command mbbench is the repository's benchmark. It runs one named
// workload against the montblanc packages for a given seed and time
// budget, checks every output, and prints each metric by name and unit
// with a JSON result object as the last line of standard output:
//
//	bash mbbench/run.sh --workload serve-mixed --seed 3 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of nproc workers or
// clients; with --trace 1 it runs one worker or client, alternates
// untraced and traced rounds, and reports the per-layer metrics. See
// README.md in this directory for the workloads, metrics and the
// layer-to-end-to-end table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs. A run repeats
// rounds of setUp, run and tearDown until its time budget is spent,
// and reports medians over the rounds.
type workload interface {
	// setUp prepares one round (registry lookup, input generation,
	// server start-up, warm-up); setup_s is its CPU time.
	setUp(r *round) error
	// run is the timed phase of a round.
	run(r *round) error
	// tearDown releases what setUp made. It is not timed.
	tearDown() error
	// probe runs the per-layer probes once, after the rounds of a
	// traced run, recording spans in round 0 and values into vals.
	probe(tr *tracer, vals values) error
	// finish runs the output checks that need every round and returns
	// how many of the rounds' operations they found wrong.
	finish() (failed int)
}

// round is one set-up plus timed phase, and what it measured.
type round struct {
	n       int // 1-based
	traced  bool
	tr      *tracer
	workers int // runner workers or HTTP clients

	// Filled by the workload.
	layer             values // per-layer values (traced rounds)
	exact             values // counts that must repeat in every round
	extra             values // end-to-end values only this workload has
	attempted, failed int

	// Filled by the measuring loop.
	setup, setupWall                 float64 // set-up CPU and host seconds
	wall, cpu, allocMB, rssMB, steal float64
	gcCPU, gcCycles                  float64
}

func newRound(n, workers int, traced bool, tr *tracer) *round {
	return &round{n: n, workers: workers, traced: traced, tr: tr,
		layer: values{}, exact: values{}, extra: values{}}
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workDir holds the run's stores and the span files, inside the
// checkout the benchmark runs from.
var workDir = filepath.Join(".bench_build", "work")

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	var pin bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cluster-sim, memory-sweep or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "time budget of the rounds, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.BoolVar(&pin, "pin", false, "print the batch workloads' output digests for every pinned seed, then exit")
	flag.Parse()
	if pin {
		if err := printDigests(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mbbench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		return 2
	}
	cfg.trace = traceFlag == 1
	if err := measure(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mbbench:", err)
		return 1
	}
	return 0
}

// newWorkload builds the named workload; runDir is scratch space the
// run removes when it ends.
func newWorkload(name string, seed uint64, runDir string) (workload, error) {
	switch name {
	case "cluster-sim":
		return newBatch(clusterSimIDs, seed, probeRanks), nil
	case "memory-sweep":
		return newBatch(memorySweepIDs, seed, probeMembench), nil
	case "serve-mixed":
		return newServe(seed, runDir, defaultServeShape), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cluster-sim, memory-sweep or serve-mixed)", name)
}

// measure runs the rounds, the probes and the checks, and prints the
// report.
func measure(cfg config) error {
	t0 := time.Now()
	workers := runtime.NumCPU()
	if cfg.trace {
		workers = 1 // so process-wide simmpi.Engine deltas belong to one experiment
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	w, err := newWorkload(cfg.workload, cfg.seed, runDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	host := newHostInfo()
	tr := newTracer(t0)

	var rounds []*round
	for n := 1; ; n++ {
		// A traced run alternates untraced and traced rounds at the same
		// worker count, so their wall times give the tracing overhead.
		r := newRound(n, workers, cfg.trace && n%2 == 0, tr)
		tr.on = r.traced
		if err := measureRound(w, r); err != nil {
			return fmt.Errorf("round %d: %w", n, err)
		}
		host.StealS += r.steal
		rounds = append(rounds, r)
		fmt.Printf("round %d: setup cpu %.4g s, setup wall %.4g s, wall %.4g s, cpu %.4g s, alloc %.4g MiB, peak rss %.4g MiB, steal %.3g s, traced %v\n",
			n, r.setup, r.setupWall, r.wall, r.cpu, r.allocMB, r.rssMB, r.steal, r.traced)
		if time.Since(t0).Seconds() >= cfg.seconds && (!cfg.trace || n%2 == 0) {
			break
		}
	}
	if s, ok := w.(*serve); ok {
		host.StoreFS = s.fs
	}

	vals := values{}
	if cfg.trace {
		tr.on = true
		if err := w.probe(tr, vals); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		tr.on = false
		traceValues(rounds, tr, vals)
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	} else {
		pick := func(f func(r *round) float64) float64 {
			xs := make([]float64, len(rounds))
			for i, r := range rounds {
				xs[i] = f(r)
			}
			return median(xs)
		}
		vals["setup_s"] = pick(func(r *round) float64 { return r.setup })
		vals["setup_wall_s"] = pick(func(r *round) float64 { return r.setupWall })
		vals["wall_s"] = pick(func(r *round) float64 { return r.wall })
		vals["cpu_s"] = pick(func(r *round) float64 { return r.cpu })
		vals["alloc_mb"] = pick(func(r *round) float64 { return r.allocMB })
		vals["max_rss_mb"] = pick(func(r *round) float64 { return r.rssMB })
		for k := range rounds[0].extra {
			vals[k] = pick(func(r *round) float64 { return r.extra[k] })
		}
	}

	attempted, failed := 0, w.finish()
	for _, r := range rounds {
		attempted += r.attempted
		failed += r.failed
	}
	exactOK := checkExact(rounds)
	frac := float64(failed) / float64(max(attempted, 1))

	hj, _ := json.Marshal(host)
	fmt.Printf("workload %s seed %d: %d rounds over %.1f s, %d workers/clients\n",
		cfg.workload, cfg.seed, len(rounds), time.Since(t0).Seconds(), workers)
	fmt.Printf("host %s\n", hj)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printValues(defs, vals)
	fmt.Printf("failed_frac %g ratio (%d of %d operations)\n", frac, failed, attempted)

	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{failed == 0 && exactOK, max(attempted, 1), failed, render(defs, vals)}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureRound runs one round: an untimed collection that also returns
// free memory to the OS, so every round starts from the same heap and
// resident set, then the timed set-up, the timed phase, and the untimed
// tear-down. The set-up is timed in process CPU seconds, like cpu_s:
// on a host whose hypervisor steals CPU time its host seconds follow
// the neighbours' load, not the program (see README.md).
func measureRound(w workload, r *round) error {
	debug.FreeOSMemory()
	start, cpuStart := time.Now(), cpuSeconds()
	if err := w.setUp(r); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setup = cpuSeconds() - cpuStart
	r.setupWall = time.Since(start).Seconds()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGC()
	steal0, cpu0 := stealSeconds(), cpuSeconds()
	rss := startRSSSampler()
	start = time.Now()
	err := w.run(r)
	r.wall = time.Since(start).Seconds()
	r.cpu = cpuSeconds() - cpu0
	r.steal = stealSeconds() - steal0
	r.rssMB = rss.stop()
	gc1 := readGC()
	runtime.ReadMemStats(&ms1)
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.gcCPU, r.gcCycles = gc1[0]-gc0[0], gc1[1]-gc0[1]

	if terr := w.tearDown(); err == nil && terr != nil {
		err = fmt.Errorf("tear-down: %w", terr)
	}
	return err
}

// readGC returns the process's GC CPU seconds and completed GC cycles.
func readGC() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out [2]float64
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		}
	}
	return out
}

// traceValues fills the per-layer values of a traced run: medians over
// the traced rounds of what each measured, the layers' self times, and
// the tracing overhead against the untraced rounds.
func traceValues(rounds []*round, tr *tracer, vals values) {
	var traced []*round
	var tracedWall, plainWall []float64
	for _, r := range rounds {
		if !r.traced {
			plainWall = append(plainWall, r.wall)
			continue
		}
		traced = append(traced, r)
		tracedWall = append(tracedWall, r.wall)
		r.layer["runtime.gc_cpu_s"] = r.gcCPU
		r.layer["runtime.gc_cycles"] = r.gcCycles
		for layer, secs := range tr.selfTimes(r.n) {
			r.layer["self."+layer+"_s"] = secs
		}
	}
	for k := range traced[0].layer {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.layer[k]
		}
		vals[k] = median(xs)
	}
	for layer, secs := range tr.selfTimes(0) {
		vals["self."+layer+"_s"] += secs
	}
	vals["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
}

// checkExact reports whether every round measured the same exact
// counts. A deterministic program given the same inputs must; a
// mismatch is reported on standard error and makes the run incorrect.
func checkExact(rounds []*round) bool {
	ok := true
	ref := rounds[0].exact
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, r := range rounds[1:] {
		for _, k := range keys {
			if r.exact[k] != ref[k] {
				fmt.Fprintf(os.Stderr, "mbbench: exact count %s: round %d has %g, round 1 has %g\n",
					k, r.n, r.exact[k], ref[k])
				ok = false
			}
		}
		if len(r.exact) != len(ref) {
			fmt.Fprintf(os.Stderr, "mbbench: round %d counted %d exact values, round 1 %d\n", r.n, len(r.exact), len(ref))
			ok = false
		}
	}
	return ok
}

// printValues prints one "name value unit" line per metric, then any
// workload-specific values not in defs in name order.
func printValues(defs []metricDef, vals values) {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		fmt.Printf("%s %.6g %s\n", d.Name, vals[d.Name], d.Unit)
		seen[d.Name] = true
	}
	var rest []string
	for k := range vals {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	slices.Sort(rest)
	for _, k := range rest {
		fmt.Printf("%s %.6g %s\n", k, vals[k], extraUnits[k])
	}
}
