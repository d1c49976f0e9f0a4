package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"montblanc/internal/fault"
	"montblanc/internal/network"
	"montblanc/internal/platform"
	"montblanc/internal/runner"
	"montblanc/internal/simmpi"
	"montblanc/internal/trace"
)

// ResilienceConfig parameterizes the checkpointing mini-app behind the
// resilience experiments: every node performs a fixed amount of useful
// work split into checkpoint intervals, writes a checkpoint image
// through DRAM after each interval, and exchanges a ring halo so the
// ranks stay coupled. A fault schedule (resolved per cluster shape by
// internal/fault) injects node crashes: work since the last checkpoint
// is lost and redone after a restart read, and downtime itself is
// frozen time — no rank records a state for it, so phase-resolved
// energy accounting charges it at idle watts automatically.
type ResilienceConfig struct {
	// Nodes is the job size, one rank per node (>= 2; default 8).
	Nodes int
	// WorkFlops is the useful double-precision work per node (default
	// 4e10). Time-to-solution is the makespan of completing all of it.
	WorkFlops float64
	// CheckpointBytes is the per-node checkpoint image streamed through
	// DRAM after each interval (default 512 MiB). Writing it — and
	// reading it back after a crash — is charged to the memory power
	// state at the platform's memory bandwidth.
	CheckpointBytes float64
	// IntervalSeconds is the checkpoint interval tau: useful work
	// between checkpoints (default 10).
	IntervalSeconds float64
	// HaloBytes is the per-neighbor ring message after each checkpoint
	// (default 256 KiB).
	HaloBytes int
	// Efficiency is the fraction of node peak the work sustains, in
	// (0, 1] (default 0.5).
	Efficiency float64
	// SimWorkers selects the simulator scheduler (see
	// simmpi.Config.Workers); results are byte-identical at any value.
	SimWorkers int
	// Faults is the resolved fault schedule; nil runs failure-free. It
	// must have been resolved against exactly Nodes nodes.
	Faults *fault.Resolved
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.WorkFlops <= 0 {
		c.WorkFlops = 4e10
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 512 << 20
	}
	if c.IntervalSeconds <= 0 {
		c.IntervalSeconds = 10
	}
	if c.HaloBytes <= 0 {
		c.HaloBytes = 256 << 10
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		c.Efficiency = 0.5
	}
	return c
}

// validate refuses hostile numbers that the <= 0 defaulting above lets
// through (NaN compares false against everything, so it would
// otherwise sail into the simulator).
func (c ResilienceConfig) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"work flops", c.WorkFlops},
		{"checkpoint bytes", c.CheckpointBytes},
		{"checkpoint interval", c.IntervalSeconds},
		{"efficiency", c.Efficiency},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("core: resilience %s must be a positive finite number, got %v", f.name, f.v)
		}
	}
	return nil
}

// CheckpointSeconds returns the cost of one checkpoint on the given
// platform: the image streamed at the platform's memory bandwidth.
// Restarts read the image back, so they cost the same.
func (c ResilienceConfig) CheckpointSeconds(p *platform.Platform) float64 {
	return c.withDefaults().CheckpointBytes / p.MemBandwidth
}

// ResilienceResult is one platform's time- and energy-to-solution under
// the configured fault schedule and checkpoint policy.
type ResilienceResult struct {
	Platform *platform.Platform
	Seconds  float64 // time-to-solution (makespan, downtime included)
	// Breakdown is the state-resolved energy: checkpoint and restart
	// I/O at memory watts, lost and useful work at compute watts,
	// downtime at idle watts (no rank records a state for it).
	Breakdown trace.EnergyBreakdown
	// Checkpoints is the number of checkpoints each rank wrote.
	Checkpoints int
	// Interval and CheckpointSeconds echo the policy actually used, in
	// this platform's terms.
	Interval          float64
	CheckpointSeconds float64
	// Crashes is the number of outage windows that actually interrupted
	// ranks; DownSeconds is the total frozen rank-time.
	Crashes     uint64
	DownSeconds float64
}

// RunResilienceProbe runs the checkpointing mini-app on a cluster of
// the given platform's nodes under the configured fault schedule.
//
// Recovery protocol (documented in FAULT.md): each rank retries the
// current interval's work until it completes without a crash. A crash
// mid-interval costs the work done since the interval began (recorded
// as lost compute), a restart read (memory state), and the downtime
// (frozen, charged at idle watts). A crash during a checkpoint, a
// restart or a halo exchange merely suspends it — a deliberate
// simplification that keeps every phase a pure function of the rank's
// program and the schedule, which is what keeps fault-injected runs
// byte-identical at any scheduler worker count.
func RunResilienceProbe(p *platform.Platform, cfg ResilienceConfig) (ResilienceResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ResilienceResult{}, err
	}
	if cfg.Nodes < 2 {
		return ResilienceResult{}, errors.New("core: resilience probe needs at least 2 nodes")
	}
	if cfg.Faults != nil && cfg.Faults.Nodes != cfg.Nodes {
		return ResilienceResult{}, fmt.Errorf("core: fault schedule resolved for %d nodes, probe has %d",
			cfg.Faults.Nodes, cfg.Nodes)
	}
	n := cfg.Nodes
	rate := p.SustainedFlops(true, cfg.Efficiency)
	workSeconds := cfg.WorkFlops / rate
	nSeg := int(math.Ceil(workSeconds / cfg.IntervalSeconds))
	if nSeg < 1 {
		nSeg = 1
	}
	ckpt := cfg.CheckpointBytes / p.MemBandwidth
	restart := ckpt // the restart reads the image back through DRAM

	net := network.Star(n)
	sim := simmpi.Config{
		Ranks:           n,
		Net:             net,
		RanksPerNode:    1,
		CoreFlopsPerSec: rate,
		Power:           &p.Power,
		// Work, checkpoint, send and recv per interval; crashes add more.
		TraceHint: 4 * nSeg,
		Workers:   cfg.SimWorkers,
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Apply(net); err != nil {
			return ResilienceResult{}, err
		}
		sim.Outages = cfg.Faults.Outages
	}
	rep, err := simmpi.Run(sim, func(pr *simmpi.Proc) error {
		right := (pr.Rank() + 1) % n
		left := (pr.Rank() + n - 1) % n
		// One rank per node, so this rank's crash times are its node's
		// outage starts, consumed in order as the clock passes them.
		var crashes []simmpi.Outage
		if cfg.Faults != nil {
			crashes = cfg.Faults.NodeOutages(pr.Rank())
		}
		ci := 0
		for seg := 0; seg < nSeg; seg++ {
			segLen := cfg.IntervalSeconds
			if seg == nSeg-1 {
				segLen = workSeconds - cfg.IntervalSeconds*float64(nSeg-1)
			}
			for {
				t0 := pr.Now()
				// Crashes already behind the clock interrupted an earlier
				// phase (checkpoint, restart, halo): those were suspended,
				// not redone, so the work state survives them.
				for ci < len(crashes) && crashes[ci].Start <= t0 {
					ci++
				}
				if ci < len(crashes) && crashes[ci].Start < t0+segLen {
					// The interval dies mid-work: everything since the last
					// checkpoint is lost, then the node freezes through the
					// outage and pays a restart read before retrying.
					pr.Compute(crashes[ci].Start-t0, "resilience-lost")
					pr.Stall(restart, "resilience-restart")
					ci++
					continue
				}
				pr.Compute(segLen, "resilience-work")
				break
			}
			if seg < nSeg-1 {
				pr.Stall(ckpt, "resilience-checkpoint")
			}
			if err := pr.Send(right, seg, cfg.HaloBytes); err != nil {
				return err
			}
			if err := pr.Recv(left, seg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ResilienceResult{}, fmt.Errorf("core: resilience probe on %s: %w", p.Name, err)
	}
	return ResilienceResult{
		Platform:          p,
		Seconds:           rep.Seconds,
		Breakdown:         *rep.Energy,
		Checkpoints:       nSeg - 1,
		Interval:          cfg.IntervalSeconds,
		CheckpointSeconds: ckpt,
		Crashes:           rep.Faults.Interrupts,
		DownSeconds:       rep.Faults.DownSeconds,
	}, nil
}

// RunResilienceSweep runs the resilience probe on every platform,
// dispatching the per-platform jobs as weighted tasks on the parallel
// runner. Each result lands in its own slot, so output is identical
// for any worker count (<= 0 means GOMAXPROCS).
func RunResilienceSweep(ps []*platform.Platform, cfg ResilienceConfig, workers int) ([]ResilienceResult, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: resilience sweep needs at least one platform")
	}
	out := make([]ResilienceResult, len(ps))
	tasks := make([]runner.Task, len(ps))
	for i, p := range ps {
		i, p := i, p
		tasks[i] = runner.Task{
			ID:    "resilience/" + p.Name,
			Title: fmt.Sprintf("resilience probe on %s", p.Name),
			Run: func(io.Writer) error {
				rr, err := RunResilienceProbe(p, cfg)
				if err != nil {
					return err
				}
				out[i] = rr
				return nil
			},
		}
	}
	pool := runner.Pool{Workers: workers}
	for _, r := range pool.Run(tasks) {
		if r.Err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.ID, r.Err)
		}
	}
	return out, nil
}
