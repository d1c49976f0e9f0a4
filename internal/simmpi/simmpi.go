// Package simmpi is a deterministic, discrete-event MPI simulator: rank
// programs written in Go run as coroutines (iter.Pull) against a
// simulated network and advance a virtual clock instead of wall time.
// It provides the substrate for the paper's scalability studies
// (Figures 3 and 4): point-to-point messaging with eager and rendezvous
// protocols, and the collectives the applications need, built from
// point-to-point exactly like a real MPI implementation would.
//
// Determinism: the scheduler executes communication events in global
// (virtual time, rank) order; it only commits an event when every live
// rank has declared its next operation, and it runs each rank to its
// next declaration itself, so link reservations happen in causal order
// regardless of goroutine scheduling. Running the same program twice
// produces bit-identical timings and traces.
//
// The scheduler commits from a min-heap of executable operations in
// O(log Ranks) per event with an allocation-free steady-state hot path,
// on one shard or, with Config.Workers > 1, on node-aligned shards in
// lookahead windows; SIMMPI.md documents the design, the determinism
// invariants, and the performance envelope.
package simmpi

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"

	"montblanc/internal/network"
	"montblanc/internal/power"
	"montblanc/internal/trace"
)

// EagerThreshold is the message size above which transfers switch from
// the eager protocol (fire-and-forget, can overflow switch buffers) to
// receiver-paced rendezvous (immune to drops, extra handshake). 64 KiB
// follows common MPI defaults of the era.
const EagerThreshold = 64 << 10

// MaxWorkers bounds Config.Workers: shards beyond it cost barrier
// synchronization without buying parallelism on any plausible host.
// Absurd requests are clamped here rather than rejected.
const MaxWorkers = 64

// Outage marks a node unavailable over [Start, End) of virtual time: a
// crash at Start followed by a restart at End. While the node is down
// its ranks are frozen — local work in progress resumes after the
// restart, and communication completions landing inside the window are
// deferred to it (in-flight messages progress through the fabric
// store-and-forward, but a rank cannot observe them while its node is
// down). Down windows are left unrecorded in the trace and the energy
// log, so phase-resolved energy accounting prices them at idle watts
// for free.
//
// Determinism: an outage changes only how a rank's local clock
// advances — a pure function of (the rank's node, the rank's program)
// — so runs stay byte-identical at any shard count with no new
// synchronization. Warps only ever move clocks forward, which keeps the
// lookahead bound conservative.
type Outage struct {
	Node       int
	Start, End float64
}

// Config describes one simulated job.
type Config struct {
	Ranks        int
	Net          *network.Network
	RanksPerNode int // default 1

	// Outages injects node failures into the run (see Outage). Windows
	// on the same node may overlap; they are merged. Empty means a
	// failure-free run, byte-identical to a Config without the field.
	Outages []Outage

	// CoreFlopsPerSec is the per-rank sustained floating-point rate used
	// by ComputeFlops. Default 1e9.
	CoreFlopsPerSec float64

	// SendOverhead is the CPU cost of posting a send (default 2us), on
	// top of the memcpy at CopyBandwidth (default 600 MB/s).
	SendOverhead  float64
	CopyBandwidth float64

	// CollectTrace enables interval/communication recording.
	CollectTrace bool

	// Power, when set, meters the run's energy: every rank logs its
	// state spans, and Report.Energy integrates this per-rank profile
	// over them — bit for bit what Trace.EnergyByState computes on a
	// traced run, without building the trace. SIMMPI.md explains why.
	Power *power.Profile

	// TraceHint is an optional capacity hint: the expected number of
	// trace intervals one rank records. When CollectTrace is set it
	// presizes the per-rank interval buffers and the shared
	// communication log, and when Power is set the per-rank energy
	// logs, eliminating append regrowth on long runs. It never affects
	// results, only allocation behaviour; zero means no preallocation.
	TraceHint int

	// Workers is the number of scheduler shards. At <= 1 (the default)
	// one shard commits every event in the global (ready, rank) order
	// on the caller's goroutine. Above 1 nodes are sharded across up to
	// Workers goroutines committing in lookahead-bounded windows (see
	// parallel.go and SIMMPI.md); values above MaxWorkers are clamped,
	// and the run uses one shard when the network reports no lookahead
	// or the job has a single node. Output is byte-identical at every
	// value — Workers trades wall-clock only.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 1
	}
	if c.CoreFlopsPerSec <= 0 {
		c.CoreFlopsPerSec = 1e9
	}
	if c.SendOverhead <= 0 {
		c.SendOverhead = 2e-6
	}
	if c.CopyBandwidth <= 0 {
		c.CopyBandwidth = 600e6
	}
	if c.Workers > MaxWorkers {
		c.Workers = MaxWorkers
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Ranks <= 0 {
		return errors.New("simmpi: need at least one rank")
	}
	if c.Net == nil {
		return errors.New("simmpi: nil network")
	}
	if need := (c.Ranks + c.RanksPerNode - 1) / c.RanksPerNode; need > c.Net.NumNodes {
		return fmt.Errorf("simmpi: %d ranks at %d per node need %d nodes, network has %d",
			c.Ranks, c.RanksPerNode, need, c.Net.NumNodes)
	}
	if c.Workers < 0 {
		return fmt.Errorf("simmpi: negative worker count %d", c.Workers)
	}
	for i, o := range c.Outages {
		switch {
		case math.IsNaN(o.Start) || math.IsNaN(o.End) ||
			math.IsInf(o.Start, 0) || math.IsInf(o.End, 0):
			return fmt.Errorf("simmpi: outage %d: non-finite window [%v, %v)", i, o.Start, o.End)
		case o.Start < 0:
			return fmt.Errorf("simmpi: outage %d: negative start %v", i, o.Start)
		case o.End <= o.Start:
			return fmt.Errorf("simmpi: outage %d: empty window [%v, %v)", i, o.Start, o.End)
		case o.Node < 0 || o.Node >= c.Net.NumNodes:
			return fmt.Errorf("simmpi: outage %d: node %d outside [0, %d)", i, o.Node, c.Net.NumNodes)
		}
	}
	return nil
}

// Report is the outcome of a run.
type Report struct {
	Seconds     float64 // makespan: latest rank finish time
	RankSeconds []float64
	Trace       *trace.Trace           // nil unless CollectTrace
	Energy      *trace.EnergyBreakdown // nil unless Power
	Drops       uint64                 // network buffer overruns
	Sched       SchedStats             // how the scheduler executed the run
	Faults      FaultStats             // injected-outage impact (zero when failure-free)
}

// FaultStats summarizes what the injected node outages did to a run.
// Like the rest of the report it is byte-identical at any worker
// count: freezes are a pure function of each rank's program and its
// node's outage windows.
type FaultStats struct {
	DownSeconds float64 // total rank-seconds frozen inside outage windows
	Interrupts  uint64  // rank-freeze events (one per outage a rank hit)
}

// SchedStats describes one run from the scheduler's point of view:
// the observability the speedup curve is explained with. Every field
// except Workers, Windows and Wall is invariant in the worker count —
// sends are counted as they commit, so the cross-send ratio of a
// one-shard run predicts the barrier traffic of a windowed one.
type SchedStats struct {
	Workers    int     // scheduler shards used (1 = global order, no windows)
	Lookahead  float64 // seconds: the network's min cross-node latency (0 = unknown)
	Windows    uint64  // commit windows barriered (0 on one shard)
	Events     uint64  // operations committed
	LocalSends uint64  // intra-node sends, delivered by their shard
	CrossSends uint64  // cross-node sends, delivered at window barriers when windowed
	Wall       float64 // host seconds spent inside the run
}

type opKind int

const (
	opSend opKind = iota
	opRecv
	opExit
)

func (k opKind) String() string {
	switch k {
	case opSend:
		return "send"
	case opRecv:
		return "recv"
	case opExit:
		return "exit"
	default:
		return fmt.Sprintf("opKind(%d)", int(k))
	}
}

// op is one rank's declared next operation. Each Proc owns exactly one
// op struct for its whole lifetime (postBuf): because a rank is
// suspended until the scheduler resumes it, and the scheduler never
// touches an op after resuming its rank, the struct can be reused for
// every post — the hot path allocates nothing per operation.
type op struct {
	kind          opKind
	rank          int
	time          float64 // rank-local post time
	src, dst, tag int
	bytes         int
	ready         float64 // completion time once executable
	matched       bool    // recv only
	matchedMsg    msg
	err           error // exit only
}

type msg struct {
	arrival float64
	dropped bool
	bytes   int
}

type resumeMsg struct {
	time    float64
	dropped bool // recv only: the message was retransmitted en route
}

// world is one run's scheduler state. Ranks are partitioned into shards
// of whole nodes, and each shard commits its ranks' operations from its
// own heap in (ready, rank) order. With one shard (the default) that is
// the global commit order, run on the caller's goroutine in a single
// window with no edge; with several, the shards commit concurrently in
// lookahead-bounded windows (parallel.go).
type world struct {
	cfg      Config
	body     func(*Proc) error // the rank program
	procs    []*Proc
	mail     []mailbox // indexed by destination rank
	pending  []*op     // indexed by rank; nil when the rank has not declared
	shards   []*shard
	shardOf  []int // rank -> index into shards
	endTimes []float64
	rankErrs []error

	// Windowed runs only: shard completion signals, and the log of the
	// cross-node comms delivered at window barriers.
	phaseDone chan struct{}
	log       commLog

	// observe, when set, sees each op just before it commits, alongside
	// the pending table it was chosen from. Only tests set it.
	observe func(pending []*op, o *op)

	// outages holds each node's merged, start-sorted outage windows;
	// nil for failure-free runs (the hot paths then skip all fault
	// bookkeeping).
	outages [][]Outage

	// Interned trace labels, indexed by peer rank (built only when
	// CollectTrace is set): one "send->N" / "recv<-N" string per rank
	// for the whole run instead of one fmt.Sprintf per message.
	sendLabels []string
	recvLabels []string

	// collSeq holds each rank's per-name collective instance counters
	// (traced runs only). Only the rank touches its map. It lives here
	// rather than on Proc, whose size every run pays per rank.
	collSeq []map[string]int
}

// shard is a contiguous block of whole nodes with its own ranks'
// coroutines, min-heap and comm log. In a windowed run all fields are
// owned by the shard goroutine during a window and read by the
// coordinator only between phaseDone and the next cmd send.
type shard struct {
	procs   []*Proc // the shard's ranks, in rank order
	heap    opHeap
	live    int     // ranks not yet exited
	log     commLog // comms this shard delivered, in its commit order
	events  uint64
	locals  uint64 // intra-node sends
	crosses uint64 // cross-node sends

	// Windowed runs only: cross-node sends awaiting the barrier, and the
	// next window edge (closed to stop the shard).
	out outbox
	cmd chan float64

	// First delivery failure in shard order; a windowed run resolves the
	// globally-first error across shards and the barrier.
	err     error
	errTime float64
	errRank int
}

// commLog is what a shard, or the barrier, keeps of the sends it
// delivers: their records when tracing, and always the latest arrival,
// which bounds the energy horizon like the comm records bound the
// trace's Duration.
type commLog struct {
	comms   []trace.Comm
	arrival float64
}

func (w *world) node(rank int) int { return rank / w.cfg.RanksPerNode }

// Proc is the handle a rank program uses: its identity, virtual clock
// and communication primitives.
type Proc struct {
	rank, size   int
	now          float64
	w            *world
	tr           *trace.Trace
	meter        *meter // metered runs only: the rank's energy log
	droppedRecvs int    // running count of retransmitted messages received
	postBuf      op     // the rank's reusable operation struct

	// The rank's coroutine: the body yields each declared op, next
	// resumes it up to its next declaration, and stop unwinds it. res
	// is the resume value the scheduler stores before calling next.
	yield func(*op) bool
	next  func() (*op, bool)
	stop  func()
	res   resumeMsg

	// down is this rank's node's outage schedule (nil when failure-
	// free); downIdx advances monotonically with the clock, so fault
	// checks are O(1) amortized and free once the last outage is past.
	down        []Outage
	downIdx     int
	downSeconds float64
	interrupts  uint64
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks.
func (p *Proc) Size() int { return p.size }

// Now returns the rank's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.now }

// Compute advances the virtual clock by seconds of local work.
func (p *Proc) Compute(seconds float64, label string) {
	p.advance(seconds, trace.StateCompute, label)
}

// ComputeFlops advances the clock by flops at the configured core rate.
func (p *Proc) ComputeFlops(flops float64, label string) {
	p.Compute(flops/p.w.cfg.CoreFlopsPerSec, label)
}

// Stall advances the virtual clock by seconds of memory-bound work
// (cores waiting on DRAM), recorded as a memory interval so
// phase-resolved power accounting can charge it at memory watts.
func (p *Proc) Stall(seconds float64, label string) {
	p.advance(seconds, trace.StateMemory, label)
}

// advance moves the clock forward by seconds of local work of the
// given kind, freezing whenever the rank's node is down: work that
// overlaps an outage is suspended and resumes after the restart,
// recorded as separate intervals around the (unrecorded) down window.
func (p *Proc) advance(seconds float64, kind trace.Kind, label string) {
	if seconds < 0 {
		seconds = 0
	}
	if p.downIdx >= len(p.down) {
		// The only path failure-free runs take: byte-identical to the
		// historical Compute/Stall, including zero-length intervals.
		start := p.now
		p.now += seconds
		p.record(kind, label, start, p.now)
		return
	}
	remaining := seconds
	for {
		p.skipDown()
		limit := math.Inf(1)
		if p.downIdx < len(p.down) {
			limit = p.down[p.downIdx].Start
		}
		if p.now+remaining <= limit {
			start := p.now
			p.now += remaining
			p.record(kind, label, start, p.now)
			return
		}
		// Work until the crash, then loop: skipDown freezes across the
		// outage opening at limit and the tail resumes after it.
		if done := limit - p.now; done > 0 {
			p.record(kind, label, p.now, limit)
			p.now = limit
			remaining -= done
		} else {
			p.now = limit
		}
	}
}

// skipDown freezes the rank across any outage containing its current
// clock, charging the frozen time to the fault stats. Clocks are
// monotonic, so the window index only ever moves forward.
func (p *Proc) skipDown() {
	for p.downIdx < len(p.down) {
		o := p.down[p.downIdx]
		if o.End <= p.now {
			p.downIdx++
			continue
		}
		if o.Start > p.now {
			return
		}
		p.downSeconds += o.End - p.now
		p.interrupts++
		p.now = o.End
		p.downIdx++
	}
}

func (p *Proc) record(kind trace.Kind, name string, start, end float64) {
	if p.meter != nil {
		p.meter.add(kind, start, end)
	}
	if p.tr != nil {
		p.tr.AddInterval(trace.Interval{
			Rank: p.rank, Kind: kind, Name: name, Start: start, End: end,
		})
	}
}

// meter is one rank's energy log: its state spans in recording order,
// and the latest span end.
type meter struct {
	spans []trace.Span
	end   float64
}

func (m *meter) add(kind trace.Kind, start, end float64) {
	m.spans = append(m.spans, trace.Span{Kind: kind, Start: start, End: end})
	if end > m.end {
		m.end = end
	}
}

// stopRank is the panic value that unwinds a rank body whose coroutine
// was stopped mid-operation; the rank's wrapper recovers it.
type stopRank struct{}

// post declares an operation through the rank's reusable op struct and
// suspends the rank until the scheduler completes it. The scheduler
// owns the struct from the yield until it resumes the rank; it never
// touches the op afterwards, so the next post may safely overwrite it.
func (p *Proc) post(kind opKind, src, dst, tag, bytes int) resumeMsg {
	o := &p.postBuf
	o.kind = kind
	o.rank = p.rank
	o.time = p.now
	o.src, o.dst, o.tag = src, dst, tag
	o.bytes = bytes
	o.matched = false
	o.matchedMsg = msg{}
	o.err = nil
	if !p.yield(o) {
		panic(stopRank{})
	}
	return p.res
}

// Send transmits bytes to rank dst with the given tag. It returns once
// the local side is free again (eager) — delivery happens in the
// background at network speed.
func (p *Proc) Send(dst, tag, bytes int) error {
	if dst < 0 || dst >= p.size {
		return fmt.Errorf("simmpi: send to invalid rank %d", dst)
	}
	if bytes < 0 {
		return fmt.Errorf("simmpi: negative send size %d", bytes)
	}
	start := p.now
	p.now = p.post(opSend, 0, dst, tag, bytes).time
	p.complete(trace.StateSend, p.w.sendLabels, dst, start)
	return nil
}

// Recv blocks until a message from src with the given tag arrives.
func (p *Proc) Recv(src, tag int) error {
	if src < 0 || src >= p.size {
		return fmt.Errorf("simmpi: recv from invalid rank %d", src)
	}
	start := p.now
	r := p.post(opRecv, src, 0, tag, 0)
	p.now = r.time
	if r.dropped {
		p.droppedRecvs++
	}
	p.complete(trace.StateRecv, p.w.recvLabels, src, start)
	return nil
}

// complete records a finished send or recv with the peer's interned
// label, then applies any outage the completion landed in: it is
// observed at the restart, and the gap between the recorded interval
// and the warped clock shows up as idle time. It is kept out of Send
// and Recv because their frames sit on a suspended rank's stack, and
// the runtime sizes new goroutine stacks from the average it scans.
func (p *Proc) complete(kind trace.Kind, labels []string, peer int, start float64) {
	switch {
	case p.tr != nil:
		p.record(kind, labels[peer], start, p.now)
	case p.meter != nil:
		p.meter.add(kind, start, p.now)
	}
	p.skipDown()
}

// Collective wraps body in a named collective interval; the instance
// name carries a per-rank sequence number so the same call site groups
// across ranks ("alltoallv#3"). The interval records how many of the
// rank's receives inside the collective were retransmitted — the
// Figure 4 congestion evidence.
func (p *Proc) Collective(name string, body func() error) error {
	if p.tr == nil && p.meter == nil {
		return body()
	}
	return p.recordedCollective(name, body)
}

// recordedCollective is Collective with tracing or metering on, kept
// out of line so an unrecorded Collective adds no frame under the
// collective's body. Its own frame sits there on a suspended rank's
// stack, so the recording itself happens in endCollective.
func (p *Proc) recordedCollective(name string, body func() error) error {
	seq := -1
	if p.tr != nil {
		seq = p.w.collSeq[p.rank][name]
		p.w.collSeq[p.rank][name] = seq + 1
	}
	start, dropsBefore := p.now, p.droppedRecvs
	err := body()
	p.endCollective(name, seq, start, dropsBefore)
	return err
}

// endCollective records a finished collective instance.
func (p *Proc) endCollective(name string, seq int, start float64, dropsBefore int) {
	if p.meter != nil {
		p.meter.add(trace.StateCollective, start, p.now)
	}
	if p.tr != nil {
		p.tr.AddInterval(trace.Interval{
			Rank: p.rank, Kind: trace.StateCollective,
			Name: name + "#" + strconv.Itoa(seq), Start: start, End: p.now,
			Dropped: p.droppedRecvs - dropsBefore,
		})
	}
}

// Run executes body on every rank of a fresh world and returns the
// report. Any rank error aborts with that error (lowest rank wins).
func Run(cfg Config, body func(*Proc) error) (*Report, error) {
	return run(cfg, body, nil)
}

// newWorld builds a run's state: mailboxes, the pending table, the
// interned trace labels and the given number of shards, each owning a
// contiguous block of whole nodes so that intra-node traffic (loopback
// links, same-node mailboxes) never crosses a shard boundary.
func newWorld(cfg Config, workers int) *world {
	w := &world{
		cfg:      cfg,
		procs:    make([]*Proc, cfg.Ranks),
		mail:     make([]mailbox, cfg.Ranks),
		pending:  make([]*op, cfg.Ranks),
		shardOf:  make([]int, cfg.Ranks),
		endTimes: make([]float64, cfg.Ranks),
		rankErrs: make([]error, cfg.Ranks),
	}
	if len(cfg.Outages) > 0 {
		w.outages = buildNodeOutages(cfg)
	}
	nodes := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	base, rem := nodes/workers, nodes%workers
	node0 := 0
	for i := 0; i < workers; i++ {
		nn := base
		if i < rem {
			nn++
		}
		lo := node0 * cfg.RanksPerNode
		hi := min((node0+nn)*cfg.RanksPerNode, cfg.Ranks)
		s := &shard{procs: w.procs[lo:hi], live: hi - lo}
		s.heap.a = make([]*op, 0, hi-lo)
		for r := lo; r < hi; r++ {
			w.shardOf[r] = i
		}
		w.shards = append(w.shards, s)
		node0 += nn
	}
	if cfg.CollectTrace {
		w.sendLabels = make([]string, cfg.Ranks)
		w.recvLabels = make([]string, cfg.Ranks)
		w.collSeq = make([]map[string]int, cfg.Ranks)
		for i := range w.sendLabels {
			n := strconv.Itoa(i)
			w.sendLabels[i] = "send->" + n
			w.recvLabels[i] = "recv<-" + n
		}
		if cfg.TraceHint > 0 {
			// Roughly half a rank's intervals are sends, each one comm;
			// they all land in the one shard's log, or (cross-node ones)
			// in the barrier's.
			hint := make([]trace.Comm, 0, cfg.Ranks*cfg.TraceHint/2)
			if workers == 1 {
				w.shards[0].log.comms = hint
			} else {
				w.log.comms = hint
			}
		}
	}
	return w
}

// newProcs builds every rank's Proc, in one backing array. The ranks'
// coroutines are created later, by the goroutine of the shard that
// will resume them (start).
func (w *world) newProcs() {
	cfg := w.cfg
	all := make([]Proc, cfg.Ranks)
	var meters []meter
	var spans []trace.Span
	if cfg.Power != nil {
		meters = make([]meter, cfg.Ranks)
		if cfg.TraceHint > 0 {
			spans = make([]trace.Span, cfg.Ranks*cfg.TraceHint)
		}
	}
	for r := range all {
		p := &all[r]
		if meters != nil {
			p.meter = &meters[r]
			if spans != nil {
				// Each rank's log is a capped window of one backing array:
				// a rank outgrowing its hint reallocates only its own log.
				p.meter.spans = spans[r*cfg.TraceHint : r*cfg.TraceHint : (r+1)*cfg.TraceHint]
			}
		}
		p.rank, p.size, p.w = r, cfg.Ranks, w
		if w.outages != nil {
			p.down = w.outages[w.node(r)]
			p.skipDown() // a node down at t=0 boots its ranks at the restart
		}
		if cfg.CollectTrace {
			p.tr = trace.New(cfg.Ranks)
			if cfg.TraceHint > 0 {
				p.tr.Reserve(cfg.TraceHint, 0)
			}
			w.collSeq[r] = map[string]int{}
		}
		w.procs[r] = p
	}
}

// coroutine returns the rank's coroutine body: it runs the rank program
// to completion, turning a panic into the rank's error, then declares
// the rank's exit. A stopped rank unwinds its program through the
// stopRank panic and declares nothing more. The frames here sit under
// every rank's stack for the whole run, so they stay small: the runtime
// sizes new goroutine stacks from the average it scans.
func (p *Proc) coroutine() func(yield func(*op) bool) {
	return func(yield func(*op) bool) {
		p.yield = yield
		var err error
		defer func() {
			if r := recover(); r != nil {
				if _, stopped := r.(stopRank); stopped {
					return
				}
				err = fmt.Errorf("rank body panicked: %v", r)
			}
			p.exit(err)
		}()
		err = p.w.body(p)
	}
}

// exit declares the rank's exit. The body has returned, so its final
// post (if any) is fully committed and the reusable op struct is free.
func (p *Proc) exit(err error) {
	o := &p.postBuf
	*o = op{kind: opExit, rank: p.rank, time: p.now, err: err}
	p.yield(o)
}

// buildNodeOutages groups, sorts and merges the configured outages by
// node. Overlapping or adjacent windows on one node collapse into one,
// so skipDown always sees disjoint windows in start order.
func buildNodeOutages(cfg Config) [][]Outage {
	per := make([][]Outage, cfg.Net.NumNodes)
	for _, o := range cfg.Outages {
		per[o.Node] = append(per[o.Node], o)
	}
	for n, list := range per {
		if len(list) < 2 {
			continue
		}
		slices.SortFunc(list, func(a, b Outage) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return cmp.Compare(a.End, b.End)
		})
		merged := list[:1]
		for _, o := range list[1:] {
			last := &merged[len(merged)-1]
			if o.Start <= last.End {
				if o.End > last.End {
					last.End = o.End
				}
				continue
			}
			merged = append(merged, o)
		}
		per[n] = merged
	}
	return per
}

// faultTotals sums the per-rank freeze accounting after a run. Safe to
// read without further synchronization: a rank writes its counters
// before declaring opExit, and the scheduler observed that exit before
// the run returned.
func faultTotals(procs []*Proc) FaultStats {
	var fs FaultStats
	for _, p := range procs {
		fs.DownSeconds += p.downSeconds
		fs.Interrupts += p.interrupts
	}
	return fs
}

// mergeTrace assembles the final trace: per-rank intervals in rank
// order plus the global communication log, then the canonical sort.
func mergeTrace(cfg Config, procs []*Proc, comms []trace.Comm) *trace.Trace {
	tr := trace.New(cfg.Ranks)
	nIntervals := 0
	for _, p := range procs {
		nIntervals += len(p.tr.Intervals)
	}
	tr.Reserve(nIntervals, len(comms))
	for _, p := range procs {
		tr.Merge(p.tr)
	}
	tr.Comms = append(tr.Comms, comms...)
	tr.Sort()
	return tr
}

// energy integrates prof over the ranks' energy logs. The horizon is
// the latest span end or comm arrival — exactly the traced run's
// Trace.Duration — and each log is already in the order the trace's
// stable sort would give the rank's intervals, up to collectives, which
// the integration paints over regardless of order (SIMMPI.md).
func (w *world) energy(prof power.Profile) *trace.EnergyBreakdown {
	horizon := w.log.arrival
	for _, s := range w.shards {
		if s.log.arrival > horizon {
			horizon = s.log.arrival
		}
	}
	perRank := make([][]trace.Span, len(w.procs))
	for r, p := range w.procs {
		perRank[r] = p.meter.spans
		if p.meter.end > horizon {
			horizon = p.meter.end
		}
	}
	b := trace.Energy(perRank, horizon, prof)
	return &b
}

// shardCount returns how many scheduler shards a run will use: Workers
// bounded by the node count, collapsing to one shard when parallelism
// cannot help (one worker, one node) or cannot be proven exact (no
// lookahead from the network).
func shardCount(cfg Config) int {
	if cfg.Workers <= 1 || !(cfg.Net.Lookahead() > 0) {
		return 1
	}
	nodes := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	return min(cfg.Workers, nodes)
}

// run is Run with a commit observer (see world.observe); Run passes nil.
func run(cfg Config, body func(*Proc) error, observe func(pending []*op, o *op)) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	start := nowMonotonic()
	w := newWorld(cfg, shardCount(cfg))
	w.body = body
	w.observe = observe
	w.newProcs()

	stats := SchedStats{Workers: len(w.shards), Lookahead: cfg.Net.Lookahead()}
	var err error
	if len(w.shards) == 1 {
		err = w.runOne()
	} else {
		stats.Windows, err = w.runWindows()
	}
	if err != nil {
		return nil, err
	}
	for r, err := range w.rankErrs {
		if err != nil {
			return nil, fmt.Errorf("simmpi: rank %d: %w", r, err)
		}
	}

	for _, s := range w.shards {
		stats.Events += s.events
		stats.LocalSends += s.locals
		stats.CrossSends += s.crosses
	}
	stats.Wall = nowMonotonic() - start
	rep := &Report{RankSeconds: w.endTimes, Drops: cfg.Net.Drops(), Sched: stats,
		Faults: faultTotals(w.procs)}
	for _, t := range w.endTimes {
		if t > rep.Seconds {
			rep.Seconds = t
		}
	}
	if cfg.CollectTrace {
		rep.Trace = mergeTrace(cfg, w.procs, w.mergedComms())
	}
	if cfg.Power != nil {
		rep.Energy = w.energy(*cfg.Power)
	}
	recordEngineRun(stats)
	return rep, nil
}

// runOne commits a one-shard run: a single window with no edge, on the
// caller's goroutine, so every op commits in the global (ready, rank)
// order and every send is delivered as it commits.
func (w *world) runOne() error {
	s := w.shards[0]
	defer s.stop()
	w.start(s)
	w.runWindow(s, math.Inf(1))
	switch {
	case s.err != nil:
		return s.err
	case s.live > 0:
		return w.deadlockError()
	}
	return nil
}

// start creates the coroutines of the shard's ranks and steps each, in
// rank order, to its first declaration. It runs on the goroutine that
// will resume them: the shard's own, or the caller's with one shard.
func (w *world) start(s *shard) {
	for _, p := range s.procs {
		p.next, p.stop = iter.Pull(p.coroutine())
		w.step(s, p)
	}
}

// stop ends the coroutines of the shard's ranks; a rank suspended
// mid-program unwinds through its defers. It runs on the goroutine that
// created them, on every return path of the run.
func (s *shard) stop() {
	for _, p := range s.procs {
		if p.stop != nil {
			p.stop()
		}
	}
}

// step resumes rank p with the value stored in p.res and runs it to its
// next declaration. A send or exit is executable at once; a recv is
// parked until a matching message exists.
func (w *world) step(s *shard, p *Proc) {
	o, _ := p.next()
	w.pending[o.rank] = o
	switch o.kind {
	case opSend, opExit:
		o.ready = o.time
		s.heap.push(o)
	case opRecv:
		o.ready = math.Inf(1)
		w.match(o)
	}
}

// runWindow commits the shard's ops with ready < edge in the shard's
// (ready, rank) order — exactly the global commit order restricted to
// the shard's ranks. Every live rank always has a declared op: a
// committed rank is stepped to its next declaration before the next
// pick, so commit order is independent of goroutine scheduling. It
// returns when the next op lies at or past the edge, when no op is
// executable, or on a delivery failure.
func (w *world) runWindow(s *shard, edge float64) {
	s.out.reset()
	for s.err == nil {
		best := s.heap.peek()
		if best == nil || best.ready >= edge {
			return
		}
		if w.observe != nil {
			w.observe(w.pending, best)
		}
		s.heap.pop()
		w.pending[best.rank] = nil
		s.events++
		switch best.kind {
		case opSend:
			w.commitSend(s, best)
		case opRecv:
			p := w.procs[best.rank]
			copyCost := float64(best.matchedMsg.bytes) / w.cfg.CopyBandwidth
			p.res = resumeMsg{
				time:    best.ready + copyCost,
				dropped: best.matchedMsg.dropped,
			}
			w.step(s, p)
		case opExit:
			s.live--
			w.endTimes[best.rank] = best.time
			w.rankErrs[best.rank] = best.err
		}
	}
}

// commitSend commits one send. It is delivered at once unless it
// crosses nodes in a windowed run, where it waits in the outbox for the
// barrier sweep. Either way the sender resumes now: its resume time
// does not depend on the delivery outcome.
func (w *world) commitSend(s *shard, o *op) {
	cfg := &w.cfg
	// Float addition is not associative: this grouping is part of the
	// byte-identity contract.
	overhead := cfg.SendOverhead + float64(o.bytes)/cfg.CopyBandwidth
	resumeAt := o.time + overhead
	x := xsend{time: o.time, rank: o.rank, dst: o.dst, tag: o.tag, bytes: o.bytes}
	cross := w.node(o.rank) != w.node(o.dst)
	if cross {
		s.crosses++
	} else {
		s.locals++
	}
	if cross && len(w.shards) > 1 {
		s.out.push(x)
	} else if err := w.land(x, &s.log); err != nil {
		s.err, s.errTime, s.errRank = err, o.time, o.rank
		return
	}
	p := w.procs[o.rank]
	p.res = resumeMsg{time: resumeAt}
	w.step(s, p)
}

// land pushes a committed send through the network, eager or
// rendezvous by size, into the destination's mailbox; logs the comm;
// and matches a recv parked on it.
func (w *world) land(x xsend, log *commLog) error {
	opts := network.SendOptions{FlowControlled: x.bytes > EagerThreshold}
	res, err := w.cfg.Net.SendOpts(x.time, w.node(x.rank), w.node(x.dst), x.bytes, opts)
	if err != nil {
		return err
	}
	w.mail[x.dst].push(x.rank, x.tag, msg{arrival: res.Arrival, dropped: res.Dropped, bytes: x.bytes})
	if res.Arrival > log.arrival {
		log.arrival = res.Arrival
	}
	if w.cfg.CollectTrace {
		log.comms = append(log.comms, trace.Comm{
			Src: x.rank, Dst: x.dst, Tag: x.tag, Bytes: x.bytes,
			Sent: x.time, Arrived: res.Arrival, Dropped: res.Dropped,
		})
	}
	if ro := w.pending[x.dst]; ro != nil && ro.kind == opRecv && !ro.matched {
		w.match(ro)
	}
	return nil
}

// match completes a parked recv against its mailbox if a message is
// waiting, pushing it onto the heap of the shard that owns its rank.
func (w *world) match(o *op) {
	m, ok := w.mail[o.rank].match(o.src, o.tag)
	if !ok {
		return
	}
	o.matched = true
	o.matchedMsg = m
	o.ready = math.Max(o.time, m.arrival)
	w.shards[w.shardOf[o.rank]].heap.push(o)
}

// describe renders the op for diagnostics.
func (o *op) describe() string {
	switch o.kind {
	case opSend:
		return fmt.Sprintf("send to %d tag %d (%d bytes)", o.dst, o.tag, o.bytes)
	case opRecv:
		return fmt.Sprintf("recv from %d tag %d", o.src, o.tag)
	case opExit:
		return "exit"
	default:
		return o.kind.String()
	}
}

// deadlockError reports a state where every live rank has declared an
// operation but none is executable. It names the lowest blocked rank's
// actual pending operation — whatever its kind — and tallies the rest
// by kind, so a stall is never misreported as a recv when something
// else is stuck.
func (w *world) deadlockError() error {
	lowest, nPending := -1, 0
	kinds := [3]int{}
	for r, o := range w.pending {
		if o == nil {
			continue
		}
		nPending++
		if lowest == -1 {
			lowest = r
		}
		if int(o.kind) < len(kinds) {
			kinds[o.kind]++
		}
	}
	if lowest == -1 {
		return errors.New("simmpi: deadlock with no pending operations")
	}
	o := w.pending[lowest]
	return fmt.Errorf("simmpi: deadlock: rank %d waiting on %s (%d more ranks blocked; pending ops: %d send, %d recv, %d exit)",
		lowest, o.describe(), nPending-1, kinds[opSend], kinds[opRecv], kinds[opExit])
}
