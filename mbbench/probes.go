package main

import (
	"fmt"
	"time"

	"montblanc/internal/apps/specfem"
	"montblanc/internal/cluster"
	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/papi"
	"montblanc/internal/platform"
	"montblanc/internal/units"
)

// The layer probes call one layer directly, after the timed rounds of
// a traced run, where a batch experiment would hide the layer inside
// its own rendering. Their shapes mirror the full-mode experiments
// (internal/experiments/rankscale.go and scalemem.go) so the probed
// numbers are the ones the timed phase pays for.

// probeRanks runs scale-ranks' full-mode SPECFEM3D halo exchange at each
// rank count through specfem.TimeDistributed and reports the simulator's
// host nanoseconds per committed event at each.
func probeRanks(tr *tracer, vals values) error {
	c, err := cluster.Tibidabo(5120)
	if err != nil {
		return err
	}
	cfg := specfem.ScalingConfig{Steps: 20}
	for _, ranks := range scaleRanks {
		id := tr.begin(fmt.Sprintf("specfem.TimeDistributed/r%d", ranks), layerSimMPI, 0, 0, -1)
		rep, err := specfem.TimeDistributed(c, ranks, cfg)
		tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("specfem.TimeDistributed at %d ranks: %w", ranks, err)
		}
		if rep.Sched.Events == 0 {
			return fmt.Errorf("specfem.TimeDistributed at %d ranks committed no events", ranks)
		}
		vals[fmt.Sprintf("simmpi.ns_per_event.r%d", ranks)] = rep.Sched.Wall / float64(rep.Sched.Events) * 1e9
	}
	return nil
}

// papiCounters are the miss counters membench.Result carries, reported
// summed over the probe's configurations.
var papiCounters = []struct {
	name  string
	event papi.Event
}{
	{"papi_l1_dcm", papi.L1_DCM},
	{"papi_l2_dcm", papi.L2_DCM},
	{"papi_l3_dcm", papi.L3_DCM},
	{"papi_tlb_dm", papi.TLB_DM},
}

// probeMembench runs scale-membench's full-mode configurations through
// membench.NewRunner and Runner.Run: per platform one runner over a
// contiguous mapping, then every array size x stride of 64-bit
// elements.
func probeMembench(tr *tracer, vals values) error {
	var newRunner, runTime time.Duration
	for _, name := range []string{"Snowball", "ThunderX2"} {
		p, err := platform.Lookup(name)
		if err != nil {
			return err
		}
		id := tr.begin("membench.NewRunner/"+name, layerMembench, 0, 0, -1)
		start := time.Now()
		rn, err := membench.NewRunner(p, mem.NewContiguousMapper(0))
		newRunner += time.Since(start)
		tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("membench.NewRunner(%s): %w", name, err)
		}
		for _, size := range []int{64 * units.MiB, 256 * units.MiB} {
			for _, stride := range []int{1, 8, 64} {
				id := tr.begin(fmt.Sprintf("membench.Run/%s/%dMiB/s%d", name, size/units.MiB, stride), layerMembench, 0, 0, -1)
				start := time.Now()
				res, err := rn.Run(membench.Config{ArrayBytes: size, StrideElems: stride, Width: cpu.W64})
				runTime += time.Since(start)
				tr.end(id, nil)
				if err != nil {
					return fmt.Errorf("membench.Run(%s): %w", name, err)
				}
				vals["membench.accesses"] += float64(res.Accesses)
				for _, c := range papiCounters {
					vals["membench."+c.name] += float64(res.Counters.Get(c.event))
				}
			}
		}
	}
	vals["membench.new_runner_s"] = newRunner.Seconds()
	vals["membench.run_s"] = runTime.Seconds()
	vals["membench.ns_per_access"] = float64(runTime.Nanoseconds()) / vals["membench.accesses"]
	return nil
}
