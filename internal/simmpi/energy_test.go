package simmpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"montblanc/internal/network"
	"montblanc/internal/power"
	"montblanc/internal/trace"
	"montblanc/internal/xrand"
)

// meterProfile has distinct watts per state, so a span charged to the
// wrong state or a reordered addition shows up in the bits.
var meterProfile = power.Profile{Name: "node", Idle: 1.5, Compute: 10.25, Memory: 7.125, Comm: 3.0625}

// sameBreakdown reports the first field where got and want differ bit
// for bit, or "" when they are identical.
func sameBreakdown(got, want trace.EnergyBreakdown) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Seconds, want.Seconds) {
		return fmt.Sprintf("Seconds %v, want %v", got.Seconds, want.Seconds)
	}
	if !same(got.Total, want.Total) {
		return fmt.Sprintf("Total %v, want %v", got.Total, want.Total)
	}
	for _, st := range power.States() {
		if !same(got.SecondsByState[st], want.SecondsByState[st]) {
			return fmt.Sprintf("SecondsByState[%s] %v, want %v", st, got.SecondsByState[st], want.SecondsByState[st])
		}
		if !same(got.ByState[st], want.ByState[st]) {
			return fmt.Sprintf("ByState[%s] %v, want %v", st, got.ByState[st], want.ByState[st])
		}
	}
	if len(got.SecondsByState) != len(want.SecondsByState) || len(got.ByState) != len(want.ByState) {
		return fmt.Sprintf("state sets %v / %v, want %v / %v", got.SecondsByState, got.ByState, want.SecondsByState, want.ByState)
	}
	if len(got.ByRank) != len(want.ByRank) {
		return fmt.Sprintf("%d ranks, want %d", len(got.ByRank), len(want.ByRank))
	}
	for r := range got.ByRank {
		if !same(got.ByRank[r], want.ByRank[r]) {
			return fmt.Sprintf("ByRank[%d] %v, want %v", r, got.ByRank[r], want.ByRank[r])
		}
	}
	return ""
}

// The energy meter (Config.Power) must reproduce Trace.EnergyByState on
// a traced run of the same program bit for bit, at every worker count:
// randomized programs of compute, stalls, ring send/recv, barriers and
// alltoallv nested inside a named collective, under outage storms and
// degraded links. Every program ends with an eager message nobody
// receives, sent after a barrier: it arrives after every rank's last
// state, so only the comm arrivals set the horizon.
func TestEnergyMeterEquivalence(t *testing.T) {
	var sawInterrupt, sawDegraded, sawLateArrival bool
	check := func(seed uint64) bool {
		rng := xrand.New(seed%1000 + 1)
		ranks := 2 + int(rng.Uint64()%11) // 2..12
		per := 1 + int(rng.Uint64()%2)    // 1..2
		rounds := 2 + int(rng.Uint64()%4) // 2..5
		nodes := (ranks + per - 1) / per
		ops := make([]int, rounds)
		sizes := make([]int, rounds)
		for i := range ops {
			ops[i] = int(rng.Uint64() % 4)
			sizes[i] = 1 + int(rng.Uint64()%150000) // eager and rendezvous
		}
		cfg := starConfig(ranks, per)
		cfg.Outages = []Outage{{Node: int(rng.Uint64() % uint64(nodes)), Start: 1e-4, End: 2e-3}}
		for i := 0; i < int(rng.Uint64()%4); i++ {
			start := 1e-5 * float64(rng.Uint64()%3000)
			cfg.Outages = append(cfg.Outages, Outage{
				Node:  int(rng.Uint64() % uint64(nodes)),
				Start: start,
				End:   start + 1e-5*float64(1+rng.Uint64()%500),
			})
		}
		deg := network.Degradation{
			Start:           1e-5 * float64(rng.Uint64()%500),
			End:             5e-3 + 1e-5*float64(rng.Uint64()%500),
			BandwidthFactor: 1 + float64(rng.Uint64()%10),
			ExtraLatency:    1e-6 * float64(rng.Uint64()%100),
		}
		degLink := fmt.Sprintf("node%d->sw", rng.Uint64()%uint64(nodes))
		body := func(p *Proc) error {
			prng := xrand.New(seed*7919 + uint64(p.Rank()))
			for i, op := range ops {
				var err error
				switch op {
				case 0:
					p.Compute(1e-5*float64(prng.Uint64()%300), "work")
					p.Stall(1e-5*float64(prng.Uint64()%100), "sweep")
				case 1:
					next := (p.Rank() + 1 + i) % p.Size()
					prev := (p.Rank() - 1 - i + p.Size()*(i+2)) % p.Size()
					if err = p.Send(next, i, sizes[i]); err == nil {
						err = p.Recv(prev, i)
					}
				case 2:
					p.Compute(1e-5*float64(prng.Uint64()%50), "skew")
					err = p.Barrier()
				default:
					err = p.Collective("phase", func() error {
						counts := make([]int, p.Size())
						for j := range counts {
							counts[j] = sizes[i] / p.Size()
						}
						return p.Alltoallv(counts, AlltoallvAlgorithm(i%2))
					})
				}
				if err != nil {
					return err
				}
			}
			if err := p.Barrier(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				return p.Send(p.Size()-1, 1<<20, EagerThreshold)
			}
			return nil
		}
		run := func(c Config) *Report {
			c.Net.Reset()
			if err := c.Net.DegradeLink(degLink, deg); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rep, err := Run(c, body)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, c.Workers, err)
			}
			return rep
		}
		traced := cfg
		traced.CollectTrace = true
		ref := run(traced)
		want := ref.Trace.EnergyByState(meterProfile)
		if ref.Faults.Interrupts > 0 {
			sawInterrupt = true
		}
		if cfg.Net.DegradedTransfers() > 0 {
			sawDegraded = true
		}
		if want.Seconds > ref.Seconds {
			sawLateArrival = true
		}
		// Tracing and metering together: the meter is unaffected.
		both := traced
		both.Power = &meterProfile
		if diff := sameBreakdown(*run(both).Energy, want); diff != "" {
			t.Fatalf("seed %d traced and metered: %s", seed, diff)
		}
		for workers := 1; workers <= 8; workers++ {
			metered := cfg
			metered.Power = &meterProfile
			metered.Workers = workers
			got := run(metered)
			switch {
			case got.Trace != nil:
				t.Fatalf("seed %d workers=%d: metered run built a trace", seed, workers)
			case got.Seconds != ref.Seconds:
				t.Fatalf("seed %d workers=%d: makespan %v, traced %v", seed, workers, got.Seconds, ref.Seconds)
			}
			if diff := sameBreakdown(*got.Energy, want); diff != "" {
				t.Fatalf("seed %d workers=%d: %s", seed, workers, diff)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if !sawInterrupt {
		t.Error("no seed produced an interrupting outage — the storm never bit")
	}
	if !sawDegraded {
		t.Error("no seed produced a degraded transfer — the link faults never bit")
	}
	if !sawLateArrival {
		t.Error("no seed ended on a comm arrival — the horizon rule went unchecked")
	}
}

// A run without Config.Power reports no energy.
func TestEnergyMeterOff(t *testing.T) {
	rep, err := Run(starConfig(2, 1), func(p *Proc) error {
		p.Compute(1e-3, "work")
		return p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy != nil {
		t.Errorf("Energy = %+v without Config.Power", rep.Energy)
	}
}
