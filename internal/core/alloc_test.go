package core

import (
	"runtime"
	"testing"

	"montblanc/internal/fault"
	"montblanc/internal/platform"
)

// A quick-config resilience probe under a crash schedule meters its
// energy from the ranks' span logs instead of building a trace. Built
// on a trace, the same probe allocated 310 objects and 110 KB per run;
// the bounds hold it under half of those bytes.
func TestResilienceProbeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	p := platform.MustLookup("Tegra2")
	cfg := quickResilience()
	spec := &fault.Spec{Seed: 11, MTBFSeconds: 40, HorizonSeconds: 500, DowntimeSeconds: 2}
	cfg.Faults = resolveFor(t, spec, cfg.Nodes, 0)
	probe := func() {
		if _, err := RunResilienceProbe(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, probe)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		probe()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("resilience probe: %.0f allocs, %d bytes per run", allocs, bytes)
	if allocs > 240 {
		t.Errorf("resilience probe allocates %.0f objects per run, want <= 240", allocs)
	}
	if bytes > 48<<10 {
		t.Errorf("resilience probe allocates %d bytes per run, want <= %d", bytes, 48<<10)
	}
}
