package simmpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"montblanc/internal/network"
	"montblanc/internal/xrand"
)

// The windowed scheduler's contract: byte-identical output at any
// worker count. These tests run the same workload on one shard
// (Workers: 0, the global-order reference) and in windows at workers
// 2..8, comparing reports, drop counts and full traces. The
// suite runs under -race in CI, doubling as the data-race proof of the
// shard/barrier ownership discipline.

// runParallelWorkers executes cfg/body at the given worker count on a
// pristine network.
func runParallelWorkers(t *testing.T, cfg Config, workers int, body func(*Proc) error) *Report {
	t.Helper()
	cfg.Workers = workers
	cfg.Net.Reset()
	rep, err := Run(cfg, body)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep
}

// assertParallelEquivalent checks every worker count in 2..8 against
// the sequential reference on the same config and body.
func assertParallelEquivalent(t *testing.T, cfg Config, body func(*Proc) error) {
	t.Helper()
	ref := runParallelWorkers(t, cfg, 0, body)
	for workers := 2; workers <= 8; workers++ {
		got := runParallelWorkers(t, cfg, workers, body)
		if got.Seconds != ref.Seconds {
			t.Fatalf("workers=%d: makespan %v, sequential %v", workers, got.Seconds, ref.Seconds)
		}
		if !reflect.DeepEqual(got.RankSeconds, ref.RankSeconds) {
			t.Fatalf("workers=%d: rank end times differ\ngot %v\nref %v", workers, got.RankSeconds, ref.RankSeconds)
		}
		if got.Drops != ref.Drops {
			t.Fatalf("workers=%d: drops %d, sequential %d", workers, got.Drops, ref.Drops)
		}
		if got.Faults.DownSeconds != ref.Faults.DownSeconds || got.Faults.Interrupts != ref.Faults.Interrupts {
			t.Fatalf("workers=%d: fault accounting (%v down, %d interrupts), sequential (%v, %d)",
				workers, got.Faults.DownSeconds, got.Faults.Interrupts, ref.Faults.DownSeconds, ref.Faults.Interrupts)
		}
		if got.Sched.Events != ref.Sched.Events {
			t.Fatalf("workers=%d: events %d, sequential %d", workers, got.Sched.Events, ref.Sched.Events)
		}
		if got.Sched.LocalSends != ref.Sched.LocalSends || got.Sched.CrossSends != ref.Sched.CrossSends {
			t.Fatalf("workers=%d: send split (%d local, %d cross), sequential (%d, %d)",
				workers, got.Sched.LocalSends, got.Sched.CrossSends, ref.Sched.LocalSends, ref.Sched.CrossSends)
		}
		if cfg.CollectTrace {
			if !reflect.DeepEqual(got.Trace.Intervals, ref.Trace.Intervals) {
				t.Fatalf("workers=%d: trace intervals differ", workers)
			}
			if !reflect.DeepEqual(got.Trace.Comms, ref.Trace.Comms) {
				t.Fatalf("workers=%d: trace comms differ", workers)
			}
		}
	}
}

// Tie-heavy workload: every rank enters a barrier storm at t=0, so
// each round is wall-to-wall equal-ready commits — the shard heaps'
// (ready, rank) tie-break and the barrier merge's rank tie-break must
// reproduce the global order exactly.
func TestParallelEquivalenceBarrierStorm(t *testing.T) {
	cfg := starConfig(16, 2)
	cfg.CollectTrace = true
	assertParallelEquivalent(t, cfg, func(p *Proc) error {
		for i := 0; i < 5; i++ {
			if err := p.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

// Neighbour ring with mixed intra- and cross-node hops plus an
// allreduce: the scale-ranks benchmark body in miniature.
func TestParallelEquivalenceRing(t *testing.T) {
	cfg := starConfig(24, 2)
	cfg.CollectTrace = true
	assertParallelEquivalent(t, cfg, func(p *Proc) error {
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()-1+p.Size())%p.Size()
		for it := 0; it < 4; it++ {
			if err := p.Send(next, 1+it, 2048); err != nil {
				return err
			}
			if err := p.Recv(prev, 1+it); err != nil {
				return err
			}
			if err := p.Allreduce(1024); err != nil {
				return err
			}
		}
		return nil
	})
}

// Congestion: the Figure 4 incast — a linear alltoallv overflowing the
// switch buffers. Drop counts and retransmit-delayed arrivals must
// survive the window barrier byte-identically.
func TestParallelEquivalenceIncast(t *testing.T) {
	cfg := starConfig(24, 2)
	cfg.CollectTrace = true
	assertParallelEquivalent(t, cfg, func(p *Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 48 << 10
		}
		for it := 0; it < 2; it++ {
			if err := p.Alltoallv(counts, AlltoallvLinear); err != nil {
				return err
			}
		}
		return nil
	})
}

// Rendezvous path: messages above EagerThreshold take the
// flow-controlled protocol with its handshake latency.
func TestParallelEquivalenceRendezvous(t *testing.T) {
	cfg := starConfig(8, 2)
	cfg.CollectTrace = true
	assertParallelEquivalent(t, cfg, func(p *Proc) error {
		peer := p.Rank() ^ 1
		if p.Rank()%2 == 0 {
			return p.Send(peer, 7, EagerThreshold+4096)
		}
		return p.Recv(peer, 7)
	})
}

// Tree topology: two latency classes (same-leaf and cross-leaf), so
// the lookahead is the tighter same-leaf bound while most traffic
// crosses leaves.
func TestParallelEquivalenceTree(t *testing.T) {
	const ranks, per = 80, 2
	cfg := Config{Ranks: ranks, RanksPerNode: per, Net: network.Tree(ranks/per, 8), CollectTrace: true}
	assertParallelEquivalent(t, cfg, func(p *Proc) error {
		far := (p.Rank() + p.Size()/2) % p.Size()
		for it := 0; it < 3; it++ {
			if p.Rank() < p.Size()/2 {
				if err := p.Send(far, it, 4096); err != nil {
					return err
				}
				if err := p.Recv(far, 100+it); err != nil {
					return err
				}
			} else {
				if err := p.Recv(far, it); err != nil {
					return err
				}
				if err := p.Send(far, 100+it, 4096); err != nil {
					return err
				}
			}
			if err := p.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

// Randomized workloads: every rank runs a seeded random program of
// computes, sends and recvs (matched by construction: rank r talks to
// its round-robin partner with deterministic tags), across random
// rank/node shapes. testing/quick drives the seeds.
func TestParallelEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property suite in -short mode")
	}
	check := func(seed uint64) bool {
		rng := xrand.New(seed%1000 + 1)
		ranks := 4 + int(rng.Uint64()%20)     // 4..23
		per := 1 + int(rng.Uint64()%3)        // 1..3
		rounds := 2 + int(rng.Uint64()%4)     // 2..5
		bytes := 256 << (rng.Uint64() % 8)    // 256B..32KiB
		jitter := float64(rng.Uint64() % 100) // per-rank compute skew
		cfg := starConfig(ranks, per)
		cfg.CollectTrace = true
		body := func(p *Proc) error {
			prng := xrand.New(seed*1000 + uint64(p.Rank()))
			for it := 0; it < rounds; it++ {
				p.Compute(jitter*1e-6*float64(prng.Uint64()%7), "work")
				peer := (p.Rank() + 1 + it) % p.Size()
				anti := (p.Rank() - 1 - it + p.Size()*(it+2)) % p.Size()
				if err := p.Send(peer, it, bytes); err != nil {
					return err
				}
				if err := p.Recv(anti, it); err != nil {
					return err
				}
				if it%2 == 1 {
					if err := p.Allreduce(512); err != nil {
						return err
					}
				}
			}
			return nil
		}
		assertParallelEquivalent(t, cfg, body)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The deadlock diagnostic must be identical at any worker count: the
// parallel scheduler reconstructs it from the same global pending
// table.
func TestParallelDeadlockMessage(t *testing.T) {
	cfg := starConfig(8, 2)
	body := func(p *Proc) error {
		// Ranks 0 and 1 wait on each other forever; everyone else exits.
		if p.Rank() == 0 {
			return p.Recv(1, 5)
		}
		if p.Rank() == 1 {
			return p.Recv(0, 5)
		}
		return nil
	}
	cfg.Net.Reset()
	cfg.Workers = 0
	_, refErr := Run(cfg, body)
	if refErr == nil {
		t.Fatal("sequential run did not deadlock")
	}
	for workers := 2; workers <= 8; workers++ {
		cfg.Workers = workers
		cfg.Net.Reset()
		_, err := Run(cfg, body)
		if err == nil {
			t.Fatalf("workers=%d: no deadlock reported", workers)
		}
		if err.Error() != refErr.Error() {
			t.Fatalf("workers=%d: deadlock message %q, sequential %q", workers, err, refErr)
		}
	}
}

// Worker-count plumbing: absurd values clamp, negatives are rejected,
// and sub-shardable jobs fall back to the sequential path.
func TestParallelWorkerValidation(t *testing.T) {
	body := func(p *Proc) error { return nil }
	t.Run("negative", func(t *testing.T) {
		cfg := starConfig(4, 1)
		cfg.Workers = -1
		if _, err := Run(cfg, body); err == nil {
			t.Fatal("negative Workers accepted")
		}
	})
	t.Run("clamped", func(t *testing.T) {
		cfg := starConfig(4, 1)
		cfg.Workers = 1 << 20
		cfg.Net.Reset()
		rep, err := Run(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		// 4 nodes bound the shard count below MaxWorkers.
		if rep.Sched.Workers > 4 {
			t.Fatalf("worker count %d not clamped to node count", rep.Sched.Workers)
		}
	})
	t.Run("single-node-falls-back", func(t *testing.T) {
		cfg := starConfig(4, 4)
		cfg.Workers = 8
		cfg.Net.Reset()
		rep, err := Run(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sched.Workers != 1 {
			t.Fatalf("single-node job used %d workers, want sequential", rep.Sched.Workers)
		}
	})
	t.Run("no-lookahead-falls-back", func(t *testing.T) {
		links := []*network.Link{network.NewLink("wire", 1e9, 0, 0, 0)}
		net := network.New(4, links, func(src, dst int) []*network.Link { return links })
		cfg := Config{Ranks: 4, Net: net, Workers: 4}
		rep, err := Run(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sched.Workers != 1 {
			t.Fatalf("zero-lookahead network used %d workers, want sequential fallback", rep.Sched.Workers)
		}
	})
}

// Window accounting sanity: a parallel run reports its shard count,
// the network's lookahead and a positive window count; a run at
// Workers <= 1 reports one shard and no windows.
func TestParallelSchedStats(t *testing.T) {
	cfg := starConfig(16, 2)
	body := func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		for it := 0; it < 3; it++ {
			if err := p.Send(next, it, 1024); err != nil {
				return err
			}
			if err := p.Recv(prev, it); err != nil {
				return err
			}
		}
		return nil
	}
	for _, workers := range []int{0, 1} {
		if st := runParallelWorkers(t, cfg, workers, body).Sched; st.Workers != 1 || st.Windows != 0 {
			t.Errorf("workers=%d: %d shards, %d windows; want 1 shard, 0 windows", workers, st.Workers, st.Windows)
		}
	}
	st := runParallelWorkers(t, cfg, 4, body).Sched
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}
	if want := 2 * network.GigELatency; math.Abs(st.Lookahead-want) > 1e-12 {
		t.Errorf("lookahead = %v, want %v", st.Lookahead, want)
	}
	if st.Windows == 0 {
		t.Error("no windows recorded on the parallel path")
	}
	if st.Events == 0 || st.CrossSends == 0 || st.LocalSends == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
}

// Fault-injected workloads: randomized outage storms plus degraded
// star uplinks. Outages warp rank clocks and degradations stretch
// cross-node transfers — both must survive the window barrier
// byte-identically at every worker count. Link degradations live on
// the network and Net.Reset clears them, so this test re-applies the
// schedule after each reset instead of using assertParallelEquivalent.
func TestParallelEquivalenceFaultStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-storm property suite in -short mode")
	}
	var sawInterrupt, sawDegraded bool
	check := func(seed uint64) bool {
		rng := xrand.New(seed%1000 + 1)
		ranks := 4 + int(rng.Uint64()%16) // 4..19
		per := 1 + int(rng.Uint64()%2)    // 1..2
		rounds := 2 + int(rng.Uint64()%3) // 2..4
		bytes := 512 << (rng.Uint64() % 6)
		nodes := (ranks + per - 1) / per
		cfg := starConfig(ranks, per)
		cfg.CollectTrace = true
		// One early outage that always lands inside the active phase,
		// plus up to two random ones (possibly overlapping — the merge
		// path is part of what must reproduce).
		cfg.Outages = []Outage{{Node: int(rng.Uint64() % uint64(nodes)), Start: 1e-4, End: 5e-3}}
		for i := 0; i < int(rng.Uint64()%3); i++ {
			start := 1e-5 * float64(rng.Uint64()%3000)
			cfg.Outages = append(cfg.Outages, Outage{
				Node:  int(rng.Uint64() % uint64(nodes)),
				Start: start,
				End:   start + 1e-5*float64(1+rng.Uint64()%2000),
			})
		}
		// One always-hot degradation over the first transfers, plus a
		// random later window on a random uplink.
		type linkDeg struct {
			link string
			d    network.Degradation
		}
		degs := []linkDeg{{
			link: fmt.Sprintf("node%d->sw", rng.Uint64()%uint64(nodes)),
			d:    network.Degradation{Start: 0, End: 10e-3, BandwidthFactor: 1 + float64(rng.Uint64()%10)},
		}}
		if rng.Uint64()%2 == 0 {
			start := 1e-5 * float64(rng.Uint64()%2000)
			degs = append(degs, linkDeg{
				link: fmt.Sprintf("node%d->sw", rng.Uint64()%uint64(nodes)),
				d: network.Degradation{
					Start:           start,
					End:             start + 1e-5*float64(1+rng.Uint64()%3000),
					BandwidthFactor: 1 + float64(rng.Uint64()%20),
					ExtraLatency:    1e-6 * float64(rng.Uint64()%200),
				},
			})
		}
		body := func(p *Proc) error {
			prng := xrand.New(seed*7919 + uint64(p.Rank()))
			for it := 0; it < rounds; it++ {
				p.Compute(1e-5*float64(prng.Uint64()%400), "work")
				peer := (p.Rank() + 1 + it) % p.Size()
				anti := (p.Rank() - 1 - it + p.Size()*(it+2)) % p.Size()
				if err := p.Send(peer, it, bytes); err != nil {
					return err
				}
				if err := p.Recv(anti, it); err != nil {
					return err
				}
				if it%2 == 0 {
					if err := p.Barrier(); err != nil {
						return err
					}
				}
			}
			return nil
		}
		run := func(workers int) *Report {
			cfg.Workers = workers
			cfg.Net.Reset()
			for _, dg := range degs {
				if err := cfg.Net.DegradeLink(dg.link, dg.d); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			rep, err := Run(cfg, body)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			return rep
		}
		ref := run(0)
		if ref.Faults.Interrupts > 0 {
			sawInterrupt = true
		}
		if cfg.Net.DegradedTransfers() > 0 {
			sawDegraded = true
		}
		for workers := 2; workers <= 8; workers++ {
			got := run(workers)
			switch {
			case got.Seconds != ref.Seconds:
				t.Fatalf("seed %d workers=%d: makespan %v, sequential %v", seed, workers, got.Seconds, ref.Seconds)
			case !reflect.DeepEqual(got.RankSeconds, ref.RankSeconds):
				t.Fatalf("seed %d workers=%d: rank end times differ", seed, workers)
			case got.Faults.DownSeconds != ref.Faults.DownSeconds || got.Faults.Interrupts != ref.Faults.Interrupts:
				t.Fatalf("seed %d workers=%d: fault accounting (%v down, %d interrupts), sequential (%v, %d)",
					seed, workers, got.Faults.DownSeconds, got.Faults.Interrupts, ref.Faults.DownSeconds, ref.Faults.Interrupts)
			case got.Drops != ref.Drops:
				t.Fatalf("seed %d workers=%d: drops %d, sequential %d", seed, workers, got.Drops, ref.Drops)
			case got.Sched.Events != ref.Sched.Events:
				t.Fatalf("seed %d workers=%d: events %d, sequential %d", seed, workers, got.Sched.Events, ref.Sched.Events)
			case got.Sched.LocalSends != ref.Sched.LocalSends || got.Sched.CrossSends != ref.Sched.CrossSends:
				t.Fatalf("seed %d workers=%d: send split (%d local, %d cross), sequential (%d, %d)",
					seed, workers, got.Sched.LocalSends, got.Sched.CrossSends, ref.Sched.LocalSends, ref.Sched.CrossSends)
			case !reflect.DeepEqual(got.Trace.Intervals, ref.Trace.Intervals):
				t.Fatalf("seed %d workers=%d: trace intervals differ", seed, workers)
			case !reflect.DeepEqual(got.Trace.Comms, ref.Trace.Comms):
				t.Fatalf("seed %d workers=%d: trace comms differ", seed, workers)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	if !sawInterrupt {
		t.Error("no seed produced an interrupting outage — the storm never bit")
	}
	if !sawDegraded {
		t.Error("no seed produced a degraded transfer — the link faults never bit")
	}
}
