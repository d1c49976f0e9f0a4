package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/runner"
	"montblanc/internal/simmpi"
)

// pinnedSeeds is how many Options.Seed values digests.json pins. The
// workload seed n runs with Options.Seed = 1 + n%pinnedSeeds, so every
// seed maps to outputs the benchmark can check, and a claim can be
// checked on a pinned seed its author did not tune on.
const pinnedSeeds = 8

func optionsSeed(seed uint64) uint64 { return 1 + seed%pinnedSeeds }

// digests.json maps experiment ID -> Options.Seed -> SHA-256 of the
// full-size output. Regenerate it with `mbbench --pin` only when an
// output change is intended.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// batch runs a fixed set of full-size experiments through
// experiments.Results: cluster-sim and memory-sweep.
type batch struct {
	ids        []string
	opts       experiments.Options
	layerProbe func(*tracer, values) error

	// Set up per round.
	es   []experiments.Experiment
	want map[string]string // experiment ID -> pinned digest for opts.Seed
}

// newBatch runs the experiments ids; probe is the workload's layer
// probe for the traced run.
func newBatch(ids []string, seed uint64, probe func(*tracer, values) error) *batch {
	return &batch{ids: ids, opts: experiments.Options{Seed: optionsSeed(seed)}, layerProbe: probe}
}

// setUp resolves the experiments and their pinned digests, then runs
// the quick variant of the same experiments once so lazy
// initialisation and heap growth finish before the timed phase.
func (b *batch) setUp(r *round) error {
	es, err := experiments.Match(b.ids...)
	if err != nil {
		return err
	}
	all, err := loadDigests()
	if err != nil {
		return err
	}
	b.es, b.want = es, make(map[string]string, len(es))
	for _, e := range es {
		b.want[e.ID] = all[e.ID][strconv.FormatUint(b.opts.Seed, 10)]
	}
	quick := b.opts
	quick.Quick = true
	for _, res := range experiments.Results(es, quick, r.workers) {
		if res.Err != nil {
			return fmt.Errorf("warm-up %s: %w", res.ID, res.Err)
		}
	}
	return nil
}

// run is the timed phase. The untraced run hands every experiment to
// one experiments.Results call on nproc workers. The traced run calls
// it once per experiment on one worker, which attributes the
// process-wide simulator and allocation counters to one experiment.
func (b *batch) run(r *round) error {
	start := time.Now()
	e0 := simmpi.Engine()
	var results []runner.Result
	if r.workers > 1 {
		results = experiments.Results(b.es, b.opts, r.workers)
	} else {
		for _, e := range b.es {
			results = append(results, b.runOne(r, e))
		}
	}
	e1 := simmpi.Engine()
	for _, res := range results {
		r.attempted++
		if !b.check(res) {
			r.failed++
		}
	}
	sim := engineDelta(e0, e1)
	r.exact["simmpi.events"] = sim["simmpi.events"]
	r.exact["simmpi.runs"] = sim["simmpi.runs"]
	r.exact["simmpi.cross_send_ratio"] = sim["simmpi.cross_send_ratio"]
	if r.traced {
		var busy float64
		for _, res := range results {
			busy += res.Duration.Seconds()
		}
		for k, v := range sim {
			r.layer[k] = v
		}
		r.layer["runner.busy_s"] = busy
		// Makespan minus the share of busy time each worker carried:
		// what the pool and the benchmark spent around the experiments.
		r.layer["runner.tail_s"] = time.Since(start).Seconds() - busy/float64(r.workers)
	}
	return nil
}

// runOne runs one experiment alone, recording its span, duration and
// allocation when the round is traced.
func (b *batch) runOne(r *round, e experiments.Experiment) runner.Result {
	if !r.traced {
		return experiments.Results([]experiments.Experiment{e}, b.opts, 1)[0]
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	e0 := simmpi.Engine()
	id := r.tr.begin("experiments.Results/"+e.ID, layerRunner, 0, r.n, -1)
	res := experiments.Results([]experiments.Experiment{e}, b.opts, 1)[0]
	sim := simmpi.Engine().WallSeconds - e0.WallSeconds
	r.tr.end(id, map[string]float64{
		layerExperiments: res.Duration.Seconds() - sim,
		layerSimMPI:      sim,
	})
	runtime.ReadMemStats(&ms1)
	r.layer["exp."+e.ID+".s"] = res.Duration.Seconds()
	r.layer["exp."+e.ID+".alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return res
}

// check reports whether res succeeded with exactly the pinned output.
func (b *batch) check(res runner.Result) bool {
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "mbbench: check %s: error: %v\n", res.ID, res.Err)
		return false
	}
	if got, want := digest(res.Output), b.want[res.ID]; got != want {
		fmt.Fprintf(os.Stderr, "mbbench: check %s seed %d: output digest %s, pinned %q\n", res.ID, b.opts.Seed, got, want)
		return false
	}
	return true
}

func (b *batch) tearDown() error                     { return nil }
func (b *batch) finish() int                         { return 0 }
func (b *batch) probe(tr *tracer, vals values) error { return b.layerProbe(tr, vals) }

// engineDelta turns two simmpi.Engine snapshots into the simmpi layer
// values of the work between them.
func engineDelta(a, b simmpi.EngineStats) values {
	events := float64(b.Events - a.Events)
	local, cross := float64(b.LocalSends-a.LocalSends), float64(b.CrossSends-a.CrossSends)
	wall := b.WallSeconds - a.WallSeconds
	v := values{
		"simmpi.events":  events,
		"simmpi.runs":    float64(b.Runs - a.Runs),
		"simmpi.sched_s": wall,
	}
	if events > 0 {
		v["simmpi.ns_per_event"] = wall / events * 1e9
	}
	if local+cross > 0 {
		v["simmpi.cross_send_ratio"] = cross / (local + cross)
	}
	return v
}

// printDigests runs both batch workloads at every pinned seed and
// prints the digests.json document.
func printDigests(w io.Writer) error {
	out := map[string]map[string]string{}
	for seed := uint64(1); seed <= pinnedSeeds; seed++ {
		o := experiments.Options{Seed: seed}
		for _, ids := range [][]string{clusterSimIDs, memorySweepIDs} {
			es, err := experiments.Match(ids...)
			if err != nil {
				return err
			}
			for _, res := range experiments.Results(es, o, runtime.NumCPU()) {
				if res.Err != nil {
					return fmt.Errorf("%s seed %d: %w", res.ID, seed, res.Err)
				}
				if out[res.ID] == nil {
					out[res.ID] = map[string]string{}
				}
				out[res.ID][strconv.FormatUint(seed, 10)] = digest(res.Output)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
