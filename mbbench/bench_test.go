package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/runner"
	"montblanc/internal/simmpi"
)

// testShape is serve-mixed shrunk to run in about a second.
var testShape = serveShape{Requests: 300, SeedsPerExp: 20, LRU: 20, ZipfS: 1.0}

func streamBytes(in serveInputs) []byte {
	var b bytes.Buffer
	for _, k := range in.stream {
		b.Write(in.bodies[k])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genServeInputs(7, defaultServeShape), genServeInputs(7, defaultServeShape)
	if !bytes.Equal(streamBytes(a), streamBytes(b)) || !reflect.DeepEqual(a.keys, b.keys) {
		t.Fatal("seed 7 gave two different request streams")
	}
	if bytes.Equal(streamBytes(a), streamBytes(genServeInputs(8, defaultServeShape))) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	for _, ids := range [][]string{clusterSimIDs, memorySweepIDs} {
		if x, y := newBatch(ids, 7, nil).opts, newBatch(ids, 7, nil).opts; !reflect.DeepEqual(x, y) {
			t.Fatalf("seed 7 gave options %+v and %+v", x, y)
		}
	}
}

func TestEverySeedPinned(t *testing.T) {
	all, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]string{clusterSimIDs, memorySweepIDs} {
		for _, id := range ids {
			for seed := uint64(0); seed < pinnedSeeds; seed++ {
				if all[id][strconv.FormatUint(optionsSeed(seed), 10)] == "" {
					t.Errorf("%s has no digest for options seed %d", id, optionsSeed(seed))
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, n, err := percentile(xs, 0.99); err != nil || n != 1000 || v != 990 {
		t.Fatalf("p99 of 1..1000 = %g (n %d, err %v), want 990 from 1000 samples", v, n, err)
	}
	if _, n, err := percentile(xs[:999], 0.99); err == nil || n != 999 {
		t.Fatalf("p99 of 999 samples (9 beyond it) gave no error (n %d)", n)
	}
	if v, n, err := percentile(xs[:20], 0.5); err != nil || n != 20 || v != 10 {
		t.Fatalf("p50 of 1..20 = %g (n %d, err %v), want 10", v, n, err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond it) gave no error")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestCorruptBatchOutputFails(t *testing.T) {
	b := &batch{want: map[string]string{"x": digest("good")}}
	if !b.check(runner.Result{ID: "x", Output: "good"}) {
		t.Fatal("pinned output rejected")
	}
	if b.check(runner.Result{ID: "x", Output: "goof"}) {
		t.Fatal("corrupted output accepted")
	}
}

// serveRounds runs n untimed serve-mixed rounds on one client and
// returns them with the workload.
func serveRounds(t *testing.T, n int, corrupt func(s *serve)) (*serve, []*round) {
	t.Helper()
	s := newServe(5, t.TempDir(), testShape)
	var rounds []*round
	for i := 1; i <= n; i++ {
		r := newRound(i, 1, false, newTracer(time.Now()))
		if err := s.setUp(r); err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			corrupt(s)
		}
		if err := s.run(r); err != nil {
			t.Fatal(err)
		}
		if err := s.tearDown(); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r)
	}
	return s, rounds
}

func TestCorruptServedOutputFails(t *testing.T) {
	s, rounds := serveRounds(t, 1, nil)
	if failed := s.finish(); failed != 0 || rounds[0].failed != 0 {
		t.Fatalf("clean run: %d failed in the round, %d in the final check", rounds[0].failed, failed)
	}

	// A served output that a direct run does not reproduce.
	key := s.sortedSeen()[0]
	s.seen[key].res.Output += "x"
	if failed := s.finish(); failed != s.seen[key].responses || failed == 0 {
		t.Fatalf("corrupted output: %d failed, want the %d responses for that key", failed, s.seen[key].responses)
	}

	// A hit whose body differs from the round's first body for its key.
	first := s.in.stream[0]
	_, rounds = serveRounds(t, 1, func(s *serve) { s.refs[first] = []byte("corrupt") })
	want := 0
	for _, k := range s.in.stream {
		if k == first {
			want++
		}
	}
	if rounds[0].failed != want {
		t.Fatalf("corrupted body: %d requests failed, want %d", rounds[0].failed, want)
	}
}

func TestExactCountsRepeat(t *testing.T) {
	_, rounds := serveRounds(t, 2, nil)
	if !reflect.DeepEqual(rounds[0].exact, rounds[1].exact) {
		t.Fatalf("serve-mixed counts differ: %v vs %v", rounds[0].exact, rounds[1].exact)
	}
	for _, k := range []string{"service.runs", "store.disk_hits", "service.lru_hits", "simmpi.events"} {
		if _, ok := rounds[0].exact[k]; !ok {
			t.Errorf("serve-mixed did not count %s", k)
		}
	}
	if !checkExact(rounds) {
		t.Fatal("checkExact rejected identical rounds")
	}

	es, err := experiments.Match(clusterSimIDs...)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []values
	for range 2 {
		e0 := simmpi.Engine()
		experiments.Results(es, experiments.Options{Quick: true, Seed: 3}, 2)
		d := engineDelta(e0, simmpi.Engine())
		delete(d, "simmpi.sched_s")
		delete(d, "simmpi.ns_per_event")
		deltas = append(deltas, d)
	}
	if !reflect.DeepEqual(deltas[0], deltas[1]) || deltas[0]["simmpi.events"] == 0 {
		t.Fatalf("quick cluster-sim simulator counts differ or are empty: %v vs %v", deltas[0], deltas[1])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables
// and workloads this program implements.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []map[string]any `json:"end_to_end"`
		PerLayer  []metricDef      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m["name"].(string), m["unit"].(string), m["better"].(string)})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's %d metrics", len(perLayer))
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, 1, t.TempDir()); err != nil {
			t.Error(err)
		}
	}
}
