package simmpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"montblanc/internal/xrand"
)

// The determinism contract of the scheduler: the shard heaps are an
// index over the (ready, rank) total order that the seed scheduler
// walked with an O(Ranks) scan of the pending table per commit. These
// tests keep that scan as the oracle and check every commit of a
// one-shard run against it: same op, hence same kind, rank and ready
// time, at every step.

// scanPick is the seed scheduler's picker: the executable pending op
// with the smallest ready time, the lowest rank winning ties because a
// later equal-ready op does not displace the incumbent.
func scanPick(pending []*op) *op {
	var best *op
	for _, o := range pending {
		if o == nil || math.IsInf(o.ready, 1) {
			continue
		}
		if best == nil || o.ready < best.ready {
			best = o
		}
	}
	return best
}

// assertEquivalent runs body on one shard, checks each commit against
// scanPick, and returns how many commits were ready-time ties — the
// commits where only the rank tie-break decides.
func assertEquivalent(t *testing.T, cfg Config, body func(*Proc) error) (ties int) {
	t.Helper()
	cfg.Workers = 0
	cfg.Net.Reset()
	var commits uint64
	mismatch := ""
	rep, err := run(cfg, body, func(pending []*op, o *op) {
		commits++
		want := scanPick(pending)
		if want != o && mismatch == "" {
			mismatch = fmt.Sprintf("commit %d: heap picked %s of rank %d at %v, scan %s",
				commits, o.kind, o.rank, o.ready, describePick(want))
		}
		for _, q := range pending {
			if q != nil && q != o && q.ready == o.ready {
				ties++
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mismatch != "" {
		t.Fatal(mismatch)
	}
	if commits != rep.Sched.Events {
		t.Fatalf("observed %d commits, report counts %d events", commits, rep.Sched.Events)
	}
	return ties
}

func describePick(o *op) string {
	if o == nil {
		return "found nothing executable"
	}
	return fmt.Sprintf("%s of rank %d at %v", o.kind, o.rank, o.ready)
}

// All ranks enter a barrier at t=0: every round is wall-to-wall ready
// ties, the case where the heap's (ready, rank) tie-break must mirror
// the scan's lowest-rank-wins rule exactly.
func TestHeapMatchesScanOnTies(t *testing.T) {
	cfg := starConfig(8, 2)
	cfg.CollectTrace = true
	ties := assertEquivalent(t, cfg, func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := p.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if ties == 0 {
		t.Fatal("no commit was a ready-time tie: the tie-break went unchecked")
	}
}

// The Figure 4 incast: 36 ranks of linear alltoallv with eager-sized
// messages, drops included — retransmission penalties, parked recvs and
// long single-key mailbox queues all in play.
func TestHeapMatchesScanUnderCongestion(t *testing.T) {
	cfg := starConfig(36, 2)
	cfg.CollectTrace = true
	assertEquivalent(t, cfg, func(p *Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 48 << 10
		}
		return p.Alltoallv(counts, AlltoallvLinear)
	})
}

// Property: on randomized symmetric workloads — mixed collectives,
// skewed compute, ring point-to-point, random sizes crossing the
// eager/rendezvous threshold — every commit is the scan's pick.
func TestHeapScanEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(12)
		per := 1 + rng.Intn(2)
		nOps := 1 + rng.Intn(6)
		kinds := make([]int, nOps)
		sizes := make([]int, nOps)
		for i := range kinds {
			kinds[i] = rng.Intn(7)
			sizes[i] = 1 + rng.Intn(150000)
		}
		cfg := starConfig(ranks, per)
		cfg.CollectTrace = seed%2 == 0
		assertEquivalent(t, cfg, func(p *Proc) error {
			for i, kind := range kinds {
				var err error
				switch kind {
				case 0:
					err = p.Barrier()
				case 1:
					err = p.Bcast(i%p.Size(), sizes[i])
				case 2:
					err = p.Allreduce(sizes[i])
				case 3:
					counts := make([]int, p.Size())
					for j := range counts {
						counts[j] = sizes[i] / p.Size()
					}
					err = p.Alltoallv(counts, AlltoallvAlgorithm(i%2))
				case 4:
					err = p.Allgather(sizes[i])
				case 5:
					// Skewed compute then a ring shift.
					p.Compute(float64(p.Rank()%4)*1e-4, "skew")
					next := (p.Rank() + 1) % p.Size()
					prev := (p.Rank() - 1 + p.Size()) % p.Size()
					if err = p.Send(next, 100+i, sizes[i]); err == nil {
						err = p.Recv(prev, 100+i)
					}
				default:
					// Eager self-traffic plus a barrier.
					if err = p.Send(p.Rank(), 200+i, sizes[i]); err == nil {
						if err = p.Recv(p.Rank(), 200+i); err == nil {
							err = p.Barrier()
						}
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
