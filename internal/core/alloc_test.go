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
// with per-rank outage scans instead of the once-grouped schedule, 198
// objects and 24.3 KB. The bounds hold it near today's 167 and 21.4 KB.
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
	if allocs > 200 {
		t.Errorf("resilience probe allocates %.0f objects per run, want <= 200", allocs)
	}
	if bytes > 28<<10 {
		t.Errorf("resilience probe allocates %d bytes per run, want <= %d", bytes, 28<<10)
	}
}
