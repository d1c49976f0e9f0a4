package core

import (
	"errors"
	"fmt"
	"io"

	"montblanc/internal/network"
	"montblanc/internal/platform"
	"montblanc/internal/power"
	"montblanc/internal/runner"
	"montblanc/internal/simmpi"
	"montblanc/internal/trace"
)

// PhaseProbeConfig parameterizes the canonical phased mini-app behind
// the energy-phases experiment: every node alternates a fixed amount of
// compute, a fixed memory sweep and a ring halo exchange on a shared
// GbE fabric. The work per iteration is platform-independent; the
// *time* each platform spends per phase is not, which is exactly what
// phase-resolved energy accounting is after.
type PhaseProbeConfig struct {
	// Nodes is the job size, one rank per node (>= 2; default 8).
	Nodes int
	// Iters is the number of compute/memory/exchange rounds (default 10).
	Iters int
	// FlopsPerIter is the double-precision work each node performs per
	// round (default 2e9).
	FlopsPerIter float64
	// SweepBytes is the DRAM traffic of the memory phase per round
	// (default 64 MiB).
	SweepBytes float64
	// HaloBytes is the per-neighbor message size of the ring exchange
	// (default 256 KiB — above the eager threshold, so transfers are
	// flow-controlled and drop-free).
	HaloBytes int
	// Efficiency is the fraction of node peak the compute phase
	// sustains, in (0, 1] (default 0.5).
	Efficiency float64
	// Imbalance skews rank 0's compute phase by this fraction: the
	// straggler makes the other ranks block and, at the end of the job,
	// finish at different times — the idle tails real phase traces
	// show. Zero means a perfectly balanced job (no default is applied:
	// balance is a legitimate request); negative values are treated as
	// zero.
	Imbalance float64
	// SimWorkers selects the simulator scheduler (see
	// simmpi.Config.Workers); results are byte-identical at any value.
	SimWorkers int
}

func (c PhaseProbeConfig) withDefaults() PhaseProbeConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Iters <= 0 {
		c.Iters = 10
	}
	if c.FlopsPerIter <= 0 {
		c.FlopsPerIter = 2e9
	}
	if c.SweepBytes <= 0 {
		c.SweepBytes = 64 << 20
	}
	if c.HaloBytes <= 0 {
		c.HaloBytes = 256 << 10
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		c.Efficiency = 0.5
	}
	if c.Imbalance < 0 {
		c.Imbalance = 0
	}
	return c
}

// PhaseEnergy is one platform's phase-resolved accounting of the probe:
// where the time went and where the joules went.
type PhaseEnergy struct {
	Platform  *platform.Platform
	Seconds   float64 // job makespan
	Breakdown trace.EnergyBreakdown
	// EnvelopeJoules is what the paper's constant model (§III.C) would
	// charge for the same run: nodes x envelope x makespan. For a
	// uniform profile Breakdown.Total equals it exactly.
	EnvelopeJoules float64
}

// RunPhaseProbe runs the phased mini-app on a cluster of the given
// platform's nodes (one rank per node, so each rank is charged the full
// node profile), metering the platform's power profile over the ranks'
// states.
func RunPhaseProbe(p *platform.Platform, cfg PhaseProbeConfig) (PhaseEnergy, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return PhaseEnergy{}, errors.New("core: phase probe needs at least 2 nodes")
	}
	n := cfg.Nodes
	sweepSeconds := cfg.SweepBytes / p.MemBandwidth
	sim := simmpi.Config{
		Ranks:           n,
		Net:             network.Star(n),
		RanksPerNode:    1,
		CoreFlopsPerSec: p.SustainedFlops(true, cfg.Efficiency),
		Power:           &p.Power,
		TraceHint:       4 * cfg.Iters, // compute, memory, send, recv
		Workers:         cfg.SimWorkers,
	}
	rep, err := simmpi.Run(sim, func(pr *simmpi.Proc) error {
		right := (pr.Rank() + 1) % n
		left := (pr.Rank() + n - 1) % n
		flops := cfg.FlopsPerIter
		if pr.Rank() == 0 {
			flops *= 1 + cfg.Imbalance
		}
		for it := 0; it < cfg.Iters; it++ {
			pr.ComputeFlops(flops, "phase-compute")
			pr.Stall(sweepSeconds, "phase-memory")
			if err := pr.Send(right, it, cfg.HaloBytes); err != nil {
				return err
			}
			if err := pr.Recv(left, it); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return PhaseEnergy{}, fmt.Errorf("core: phase probe on %s: %w", p.Name, err)
	}
	return PhaseEnergy{
		Platform:       p,
		Seconds:        rep.Seconds,
		Breakdown:      *rep.Energy,
		EnvelopeJoules: float64(n) * p.Power.Energy(rep.Seconds),
	}, nil
}

// RunPhaseSweep runs the phase probe on every platform, dispatching the
// per-platform jobs as weighted tasks on the parallel runner. Each
// result lands in its own slot, so output is identical for any worker
// count (<= 0 means GOMAXPROCS).
func RunPhaseSweep(ps []*platform.Platform, cfg PhaseProbeConfig, workers int) ([]PhaseEnergy, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: phase sweep needs at least one platform")
	}
	out := make([]PhaseEnergy, len(ps))
	tasks := make([]runner.Task, len(ps))
	for i, p := range ps {
		i, p := i, p
		tasks[i] = runner.Task{
			ID:    "energy-phases/" + p.Name,
			Title: fmt.Sprintf("phase probe on %s", p.Name),
			Run: func(io.Writer) error {
				pe, err := RunPhaseProbe(p, cfg)
				if err != nil {
					return err
				}
				out[i] = pe
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

// PhaseStates lists the accounting states in the order the energy-phase
// reports render them: the active states first, idle last.
func PhaseStates() []power.State {
	return []power.State{power.StateCompute, power.StateMemory, power.StateComm, power.StateIdle}
}
