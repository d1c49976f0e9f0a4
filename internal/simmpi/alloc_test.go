package simmpi

import (
	"testing"
)

// The zero-alloc hot-path contract: with tracing off, Send and Recv
// commit through the pooled op structs, the dense pending slice, the
// reused network route buffers and the head-indexed mailbox — so the
// steady state allocates (amortized) nothing per operation. The guard
// asserts <= 1 allocation per op, an order of magnitude above the
// measured steady state (~0.01), so only a structural regression (a
// fresh allocation back on the per-op path) can trip it.
func TestSendRecvAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	cfg := starConfig(2, 1)
	const rounds = 2000
	const opsPerRun = 4 * rounds // 2 ranks x (send + recv) x rounds
	body := func(p *Proc) error {
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				if err := p.Send(1, 1, 1024); err != nil {
					return err
				}
				if err := p.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if err := p.Recv(0, 1); err != nil {
					return err
				}
				if err := p.Send(0, 2, 1024); err != nil {
					return err
				}
			}
		}
		return nil
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		cfg.Net.Reset()
		if _, err := Run(cfg, body); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perOp := allocsPerRun / opsPerRun
	t.Logf("allocs: %.0f per run, %.4f per op", allocsPerRun, perOp)
	if perOp > 1.0 {
		t.Errorf("Send/Recv hot path allocates %.2f per op, want <= 1 (tracing off)", perOp)
	}
}

// The sharded scheduler must hold the same amortized contract: shard
// heaps, outboxes and window barriers reuse their backing arrays, so a
// parallel run's per-op allocation stays within the sequential bound
// (fixed per-run costs — goroutines, shard structs — amortize out over
// a long ring exchange).
func TestParallelAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	cfg := starConfig(8, 2)
	cfg.Workers = 4
	const rounds = 500
	const opsPerRun = 8 * 2 * rounds // 8 ranks x (send + recv) x rounds
	body := func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		for r := 0; r < rounds; r++ {
			if err := p.Send(next, r, 1024); err != nil {
				return err
			}
			if err := p.Recv(prev, r); err != nil {
				return err
			}
		}
		return nil
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		cfg.Net.Reset()
		rep, err := Run(cfg, body)
		if err != nil {
			t.Error(err)
		} else if rep.Sched.Workers != 4 {
			t.Errorf("ran with %d workers, want 4", rep.Sched.Workers)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perOp := allocsPerRun / opsPerRun
	t.Logf("allocs: %.0f per run, %.4f per op", allocsPerRun, perOp)
	if perOp > 1.0 {
		t.Errorf("sharded hot path allocates %.2f per op, want <= 1 (tracing off)", perOp)
	}
}

// A long incast queue (many sends parked for one slow receiver) must
// not allocate per message beyond the amortized queue growth, and the
// head-indexed mailbox must reuse its backing array across drains.
func TestMailboxQueueAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	cfg := starConfig(2, 1)
	const msgs = 1024
	body := func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := p.Send(1, 9, 256); err != nil {
					return err
				}
			}
			return nil
		}
		p.Compute(1.0, "late start")
		for i := 0; i < msgs; i++ {
			if err := p.Recv(0, 9); err != nil {
				return err
			}
		}
		return nil
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		cfg.Net.Reset()
		if _, err := Run(cfg, body); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perOp := allocsPerRun / (2 * msgs)
	t.Logf("allocs: %.0f per run, %.4f per op", allocsPerRun, perOp)
	if perOp > 1.0 {
		t.Errorf("long-queue path allocates %.2f per op, want <= 1", perOp)
	}
}

// spawnAllocsPerRank is the measured per-rank set-up cost of an
// untraced run: the rank's coroutine (iter.Pull and the bound body, 13
// allocations). Procs share one backing array and the trace-only
// collective counters are not built, so nothing else grows with rank
// count.
const spawnAllocsPerRank = 13

// Per-rank set-up allocations of an untraced Run, pinned at the
// measured value plus 0.5 slack: the count is the slope between a 128-
// and a 256-rank run of an empty program, so per-run fixed costs cancel
// and any new allocation per rank (a map, a channel, a goroutine
// closure) trips the guard.
func TestSpawnAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	body := func(p *Proc) error { return nil }
	allocs := func(ranks int) float64 {
		cfg := starConfig(ranks, 2)
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg, body); err != nil {
				t.Error(err)
			}
		})
	}
	small, large := allocs(128), allocs(256)
	if t.Failed() {
		t.FailNow()
	}
	perRank := (large - small) / 128
	t.Logf("allocs: %.0f at 128 ranks, %.0f at 256, %.2f per rank", small, large, perRank)
	if perRank > spawnAllocsPerRank+0.5 {
		t.Errorf("run set-up allocates %.2f per rank, want <= %d + 0.5 (tracing off)", perRank, spawnAllocsPerRank)
	}
}
