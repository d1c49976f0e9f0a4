package membench

import (
	"fmt"
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
	"montblanc/internal/xrand"
)

// countingMapper counts Translate calls, i.e. TLB misses.
type countingMapper struct {
	mem.Mapper
	translations int
}

func (m *countingMapper) Translate(va uint64) uint64 {
	m.translations++
	return m.Mapper.Translate(va)
}

// A memoized Run simulates only the passes it needs: one to leave the
// cold state and one to prove the fixed point. Every later pass, warm
// or measured, is skipped or replayed. A 1 MiB array spans 256 pages,
// past the reach of the Snowball's 32-entry TLB, so each real pass
// misses every page exactly once and translations / 256 counts the
// real passes.
func TestMemoizedRunRealPasses(t *testing.T) {
	p := platform.MustLookup("Snowball")
	const pages = units.MiB / mem.PageSize
	run := func(cfg Config) int {
		t.Helper()
		cm := &countingMapper{Mapper: mem.NewContiguousMapper(0)}
		r, err := NewRunner(p, cm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if cm.translations%pages != 0 {
			t.Fatalf("%+v: %d translations, not a whole number of %d-page passes",
				cfg, cm.translations, pages)
		}
		return cm.translations / pages
	}
	probe, err := NewRunner(p, mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	stateWords := probe.Hierarchy().StateWords()
	for _, c := range []struct{ warm, measure int }{{2, 2}, {3, 7}, {1, 1}} {
		cfg := Config{ArrayBytes: units.MiB, Width: cpu.W64, WarmPasses: c.warm, MeasurePasses: c.measure}
		if count := cfg.ArrayBytes / cfg.Width.Bytes(); count < stateWords {
			t.Fatalf("config misses the memoization gate (count %d < %d state words)", count, stateWords)
		}
		if got := run(cfg); got != 2 {
			t.Errorf("warm %d, measure %d: %d real passes, want 2", c.warm, c.measure, got)
		}
	}
	// Below the gate nothing is memoized: every pass is real.
	cfg := Config{ArrayBytes: units.MiB, StrideElems: 8, Width: cpu.W64, WarmPasses: 2, MeasurePasses: 3}
	if count := cfg.ArrayBytes / cfg.Width.Bytes() / cfg.StrideElems; count >= stateWords {
		t.Fatalf("config reaches the memoization gate (count %d >= %d state words)", count, stateWords)
	}
	if got := run(cfg); got != 5 {
		t.Errorf("below the gate: %d real passes, want 5", got)
	}
}

// The memoized path against the scalar reference, with every trial
// above the gate: the fixed point may be proven by any warm or
// measured pass, and every later pass is replayed. The sweep crosses
// every (WarmPasses, MeasurePasses) pair up to (3, 5) with every
// mapper, and repeats each configuration on the warmed runners, where
// warm pass 1 already is the fixed point. Under -short or -race it is
// reduced to one mapper per pair, rotating, and each platform's
// smallest size.
func TestMemoPathMatchesScalar(t *testing.T) {
	type cell struct {
		plat   string
		sizes  []int
		widths []cpu.Width
	}
	snowball := cell{"Snowball", []int{512 * units.KiB, units.MiB}, []cpu.Width{cpu.W32, cpu.W64}}
	tegra2 := cell{"Tegra2", []int{units.MiB, 2 * units.MiB}, []cpu.Width{cpu.W64}}
	// The Xeon's 8 MiB L3 puts its gate at 271552 accesses, which makes
	// its scalar reference the costly one: it takes the MeasurePasses 2
	// pairs (only (2, 2) when reduced), where the fixed point is proven
	// by warm pass 2 or, with one warm pass, by the first measured pass.
	xeon := cell{"XeonX5550", []int{2 * units.MiB, 4 * units.MiB}, []cpu.Width{cpu.W32}}
	reduced := testing.Short() || raceEnabled
	rng := xrand.New(11)
	pair, trial := 0, 0
	for warm := 1; warm <= 3; warm++ {
		for measure := 1; measure <= 5; measure++ {
			pair++
			for mi, ms := range mapperSpecs {
				if reduced && mi != pair%len(mapperSpecs) {
					continue
				}
				trial++
				c := snowball
				switch {
				case measure == 2 && mi == pair%len(mapperSpecs) && (!reduced || warm == 2):
					c = xeon
				case trial%2 == 0:
					c = tegra2
				}
				plat := platform.MustLookup(c.plat)
				seed := rng.Uint64()
				batched, err := NewRunner(plat, ms.build(seed))
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := NewRunner(plat, ms.build(seed))
				if err != nil {
					t.Fatal(err)
				}
				sizes := c.sizes
				if reduced {
					sizes = sizes[:1]
				}
				cfg := Config{
					ArrayBytes:    sizes[rng.Uint64()%uint64(len(sizes))],
					Width:         c.widths[rng.Uint64()%uint64(len(c.widths))],
					Unroll:        1 + int(rng.Uint64()%8),
					WarmPasses:    warm,
					MeasurePasses: measure,
				}
				// Any stride up to the largest that still clears the gate.
				stateWords := batched.Hierarchy().StateWords()
				n := cfg.ArrayBytes / cfg.Width.Bytes()
				cfg.StrideElems = 1 + int(rng.Uint64()%uint64(max(n/stateWords, 1)))
				if count := (n + cfg.StrideElems - 1) / cfg.StrideElems; count < stateWords {
					t.Fatalf("%s %+v misses the memoization gate (count %d < %d state words)",
						c.plat, cfg, count, stateWords)
				}
				ctx := fmt.Sprintf("%s/%s/%+v", c.plat, ms.name, cfg)
				compareRuns(t, batched, scalar, cfg, ctx)
				compareRuns(t, batched, scalar, cfg, ctx+"/repeat")
			}
		}
	}
}

// Run after a Hierarchy().Reset measures exactly what a fresh Runner's
// Run does: the reused hierarchy carries nothing over from earlier
// work, on the memoized path or below the gate.
func TestResetThenRunMatchesFresh(t *testing.T) {
	stateless := []mapperSpec{mapperSpecs[0], mapperSpecs[1]}
	for _, name := range []string{"Snowball", "XeonX5550"} {
		p := platform.MustLookup(name)
		for _, ms := range stateless {
			reused, err := NewRunner(p, ms.build(0))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{
				{ArrayBytes: 50 * units.KiB, Width: cpu.W128, Unroll: 8},
				{ArrayBytes: 2 * units.MiB, WarmPasses: 1, MeasurePasses: 4},
				{ArrayBytes: 256 * units.KiB, StrideElems: 16},
			} {
				ctx := fmt.Sprintf("%s/%s/%+v", name, ms.name, cfg)
				reused.Hierarchy().Reset()
				got, err := reused.Run(cfg)
				if err != nil {
					t.Fatalf("%s: reused: %v", ctx, err)
				}
				fresh, err := NewRunner(p, ms.build(0))
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(cfg)
				if err != nil {
					t.Fatalf("%s: fresh: %v", ctx, err)
				}
				compareResults(t, got, want, reused, fresh, ctx)
			}
		}
	}
}
