package main

import "fmt"

// metricDef names one reported metric. The two tables below are the
// contract BENCHMARK.json restates; metrics_test.go keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the program sees, reported by every
// untraced run. Host seconds (wall_s, setup_wall_s) are printed beside
// them but are not in the result line: CPU steal on a shared VM moves
// them by more than any bound a change could be held to.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// scaleRanks are scale-ranks' full-mode rank counts
// (internal/experiments/rankscale.go), probed one by one through
// specfem.TimeDistributed in the traced cluster-sim run.
var scaleRanks = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 10240}

// batchIDs are the experiments of the two batch workloads.
var (
	clusterSimIDs  = []string{"fig3a", "fig3b", "fig3c", "fig4", "scale-ranks"}
	memorySweepIDs = []string{"fig5", "fig6", "fig7", "locality", "pagealloc", "scale-membench"}
)

// perLayer is what every traced run reports. A layer a workload does
// not exercise reads 0 there (memory-sweep runs no simulation, so its
// simmpi.events is 0), which is itself a checked prediction.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{{"trace.overhead_frac", "ratio", "lower"}}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self." + l + "_s", "s", "lower"})
	}
	defs = append(defs, metricDef{"simmpi.ns_per_event", "ns", "lower"})
	for _, r := range scaleRanks {
		defs = append(defs, metricDef{fmt.Sprintf("simmpi.ns_per_event.r%d", r), "ns", "lower"})
	}
	defs = append(defs,
		metricDef{"simmpi.sched_s", "s", "lower"},
		metricDef{"simmpi.events", "count", "lower"},
		metricDef{"simmpi.runs", "count", "lower"},
		metricDef{"simmpi.cross_send_ratio", "ratio", "lower"},
		metricDef{"membench.ns_per_access", "ns", "lower"},
		metricDef{"membench.run_s", "s", "lower"},
		metricDef{"membench.new_runner_s", "s", "lower"},
		metricDef{"membench.accesses", "count", "lower"},
	)
	for _, c := range papiCounters {
		defs = append(defs, metricDef{"membench." + c.name, "count", "lower"})
	}
	for _, ids := range [][]string{clusterSimIDs, memorySweepIDs} {
		for _, id := range ids {
			defs = append(defs,
				metricDef{"exp." + id + ".s", "s", "lower"},
				metricDef{"exp." + id + ".alloc_mb", "MiB", "lower"})
		}
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_s", "s", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runner.busy_s", "s", "lower"},
		metricDef{"runner.tail_s", "s", "lower"},
		metricDef{"service.key_us", "us", "lower"},
		metricDef{"service.encode_us", "us", "lower"},
		metricDef{"service.hit_ms_p50", "ms", "lower"},
		metricDef{"service.hit_ms_p99", "ms", "lower"},
		metricDef{"service.cold_ms_p50", "ms", "lower"},
		metricDef{"service.hit_ratio", "ratio", "higher"},
		metricDef{"service.lru_hits", "count", "higher"},
		metricDef{"service.runs", "count", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.put_us", "us", "lower"},
		metricDef{"store.disk_hits", "count", "higher"},
		metricDef{"store.bytes_on_disk", "bytes", "lower"},
	)
}

// extraUnits are the units of the values an untraced run prints but
// does not put in its result line: every workload's result line carries
// the same metrics, each steady enough to bound.
var extraUnits = map[string]string{
	"wall_s":          "s",
	"setup_wall_s":    "s",
	"req_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_p99_ms":  "ms",
	"latency_samples": "count",
}

// values maps metric names to measured values.
type values map[string]float64

// metricJSON is one entry of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render lays out vals in the order and with the units of defs; a
// metric the run did not measure reads 0.
func render(defs []metricDef, vals values) map[string]metricJSON {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		out[d.Name] = metricJSON{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
