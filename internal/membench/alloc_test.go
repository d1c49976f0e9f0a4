package membench

import (
	"runtime"
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
)

// The steady-state membench contract (mirroring the simmpi guards): a
// measured pass on a warm Runner allocates (amortized) nothing — the
// batched engine works in reused buffers and fixed-point snapshots live
// in Runner-owned scratch. This guard pins the *executed-pass* path: the
// array is kept below the memoization gate (count < StateWords), so all
// WarmPasses+MeasurePasses passes really run through AccessRun and a
// single allocation reintroduced per executed pass trips the <= 1
// bound. Only the per-Run constant overhead (the papi.Counters
// snapshot) allocates, so the measured figure is ~0.03.
func TestMembenchSteadyPassAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    64 * units.KiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 64,
	}
	const passes = 2 + 64
	if count := cfg.ArrayBytes / cfg.Width.Bytes(); count >= r.Hierarchy().StateWords() {
		t.Fatalf("config reaches the memoization gate (count %d >= %d state words); "+
			"the guard would divide by passes that never execute", count, r.Hierarchy().StateWords())
	}
	// Prime the Runner-owned scratch.
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perPass := allocsPerRun / passes
	t.Logf("allocs: %.0f per run, %.4f per executed pass", allocsPerRun, perPass)
	if perPass > 1.0 {
		t.Errorf("steady-state membench pass allocates %.2f per pass, want <= 1", perPass)
	}
}

// The memoized path's own contract: above the gate, a Run's allocation
// cost is a small constant regardless of MeasurePasses — snapshots,
// delta capture and replay all work in Runner-owned scratch. A flat
// per-Run bound (not a diluted per-pass average) catches an allocation
// reintroduced anywhere on the memoized path.
func TestMembenchMemoizedRunAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    2 * units.MiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 64,
	}
	if count := cfg.ArrayBytes / cfg.Width.Bytes(); count < r.Hierarchy().StateWords() {
		t.Fatalf("config misses the memoization gate (count %d < %d state words)",
			count, r.Hierarchy().StateWords())
	}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("allocs: %.0f per memoized 64-pass run", allocsPerRun)
	if allocsPerRun > 16 {
		t.Errorf("memoized run allocates %.0f, want a small constant (<= 16)", allocsPerRun)
	}
}

// A fresh Runner's first memoized Run sizes its two canonical-state
// snapshot buffers once, at StateWords each, so AppendState never
// grows them: the Run allocates the warm Run's small constant plus
// those two buffers, in count and in bytes.
func TestMembenchFirstMemoizedRunAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	p := platform.MustLookup("Snowball")
	cfg := Config{
		ArrayBytes:    2 * units.MiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 64,
	}
	const runs = 3
	// AllocsPerRun's runs plus its warm-up call, and one for the bytes.
	runners := make([]*Runner, runs+2)
	for i := range runners {
		r, err := NewRunner(p, mem.NewContiguousMapper(0))
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	words := runners[0].Hierarchy().StateWords()
	if count := cfg.ArrayBytes / cfg.Width.Bytes(); count < words {
		t.Fatalf("config misses the memoization gate (count %d < %d state words)", count, words)
	}
	next := 0
	first := func() {
		r := runners[next]
		next++
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, first)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	first()
	runtime.ReadMemStats(&after)
	if t.Failed() {
		t.FailNow()
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	buffers := uint64(2 * 8 * words)
	t.Logf("first memoized run: %.0f allocs, %d bytes (snapshot buffers %d bytes)", allocs, bytes, buffers)
	if allocs > 16+2 {
		t.Errorf("first memoized run allocates %.0f, want <= 16 + 2 snapshot buffers", allocs)
	}
	if bytes > buffers+32*units.KiB {
		t.Errorf("first memoized run allocates %d bytes, want <= %d for the snapshot buffers + 32 KiB",
			bytes, buffers)
	}
}

// The same guard for the scalar reference path: RunScalar predates the
// batched engine and must stay allocation-free per pass too, so
// speedup comparisons measure simulation work, not allocator traffic.
func TestMembenchScalarPassAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    64 * units.KiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 16,
	}
	const passes = 2 + 16
	if _, err := r.RunScalar(cfg); err != nil {
		t.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.RunScalar(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perPass := allocsPerRun / passes
	t.Logf("allocs: %.0f per run, %.4f per pass", allocsPerRun, perPass)
	if perPass > 1.0 {
		t.Errorf("scalar membench pass allocates %.2f per pass, want <= 1", perPass)
	}
}
