package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"montblanc/internal/fault"
	"montblanc/internal/platform"
)

// pinnedKeyCases are the requests whose cache keys TestCacheKeyPinned
// holds fixed. Between them they cover every piece of the canonical
// document: the implicit all-platforms expansion, an explicit subset,
// an inline spec shadowing a builtin, a fault schedule, quick on and
// off, two seeds and an ID that needs HTML escaping.
func pinnedKeyCases(t testing.TB) []struct {
	name, id string
	o        Options
} {
	shadow, ok := platform.LookupSpec("Snowball")
	if !ok {
		t.Fatal("builtin Snowball missing")
	}
	shadow.PowerName = ""
	shadow.Power = nil
	shadow.Watts = 123
	flt := &fault.Spec{Seed: 11, MTBFSeconds: 40, HorizonSeconds: 500, DowntimeSeconds: 2}
	subset := []string{"Snowball", "XeonX5550"}
	return []struct {
		name, id string
		o        Options
	}{
		{"empty platforms", "fig1", Options{Quick: true}},
		{"subset", "sweep-matrix", Options{Quick: true, Platforms: subset}},
		{"inline shadow", "sweep-matrix", Options{Quick: true, Platforms: []string{"Snowball"}, Specs: []platform.Spec{shadow}}},
		{"fault set", "resilience-sweep", Options{Quick: true, Fault: flt}},
		{"quick off", "fig1", Options{}},
		{"seed 7", "fig5", Options{Quick: true, Seed: 7, Platforms: subset}},
		{"seed 8", "fig5", Options{Quick: true, Seed: 8, Platforms: subset}},
		{"html id", "a<b>&c", Options{Quick: true, Platforms: subset}},
	}
}

// TestCacheKeyPinned holds the cache keys of a fixed request table at
// the values the original json.Marshal(canonicalRequest) recipe gave.
// Every durable store written so far is addressed by these keys, so a
// change to how the canonical document is assembled must leave them
// byte-identical; only a deliberate change to the key recipe (or to a
// builtin machine) may update this table.
func TestCacheKeyPinned(t *testing.T) {
	want := map[string]string{
		"empty platforms": "dc1e1dca80702662fe9ecae61935cac9a1a3db4a4a2a72c72e1db3221cd5ca38",
		"subset":          "9d5b952edf16d10a34ef36e489ed61da6211d54d2b30cc1f93871a6a2673bd44",
		"inline shadow":   "d8bfe4f4b0a00d9dd35e2858b219c6804d6975bbbbed70d2f6e36b11fe7b3ceb",
		"fault set":       "6fc6cd49825d55fafb3f2d56a392086c27c9b7be733c7133e93c5a8e9f9b46af",
		"quick off":       "efbdf751fc33ea46cc2f9fb375864a2785139defbb52b608d7cf98f34c41b3ef",
		"seed 7":          "1b542037390bde619da35a7e9055eedb610765aeb406623157e3d679a854b9bb",
		"seed 8":          "a50619a65f3b8d89dba580726088f45f5d76eec27c6854b59f6b6a9a912528f3",
		"html id":         "88ebc72ca4112080d40b68784ef34bc348efab87e593ec515fa101493ea3dbee",
	}
	for _, c := range pinnedKeyCases(t) {
		got := mustKey(t, c.id, c.o)
		if got != want[c.name] {
			t.Errorf("%s: key %s, pinned %s", c.name, got, want[c.name])
		}
	}
}

// referenceCanonicalJSON is the original canonical recipe: resolve the
// platform list to full specs and json.Marshal one canonicalRequest.
// The spliced CanonicalJSON must reproduce its bytes exactly.
func referenceCanonicalJSON(id string, o Options) ([]byte, error) {
	type canonicalRequest struct {
		Experiment string          `json:"experiment"`
		Quick      bool            `json:"quick"`
		Seed       uint64          `json:"seed"`
		Platforms  []platform.Spec `json:"platforms"`
		Fault      *fault.Spec     `json:"fault"`
	}
	r, err := o.Resolver()
	if err != nil {
		return nil, err
	}
	names := o.Platforms
	if len(names) == 0 {
		names = r.Names()
	}
	specs := make([]platform.Spec, 0, len(names))
	for _, n := range names {
		s, ok := r.LookupSpec(n)
		if !ok {
			return nil, fmt.Errorf("unknown platform %q", n)
		}
		specs = append(specs, s)
	}
	return json.Marshal(canonicalRequest{id, o.Quick, o.Seed, specs, o.Fault})
}

func TestCanonicalJSONMatchesReference(t *testing.T) {
	for _, c := range pinnedKeyCases(t) {
		got, err := CanonicalJSON(c.id, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := referenceCanonicalJSON(c.id, c.o)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical document differs from the reference:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// FuzzCacheKey checks the spliced canonical document against the
// json.Marshal reference over arbitrary IDs, seeds, platform subsets
// (in either order), inline shadows and fault schedules. It must never
// panic; whatever canonicalizes must equal the reference byte for
// byte and hash to CacheKey; canonicalizing twice gives the same key;
// and sim_workers, which cannot change output, never changes the key.
func FuzzCacheKey(f *testing.F) {
	f.Add("fig1", true, uint64(0), uint8(0), false, false, 0.0, false, 0.0, 0)
	f.Add("sweep-matrix", true, uint64(7), uint8(0b101), true, true, 123.0, false, 0.0, 4)
	f.Add("resilience-sweep", false, uint64(1<<63), uint8(0xff), false, false, 0.0, true, 40.0, 2)
	f.Add("a<b>&c\u2028\x00\xff", true, uint64(3), uint8(0b11), false, true, -1.0, true, math.Inf(1), -3)
	names := platform.Names()
	f.Fuzz(func(t *testing.T, id string, quick bool, seed uint64, mask uint8, reverse, shadow bool, watts float64, withFault bool, mtbf float64, workers int) {
		o := Options{Quick: quick, Seed: seed, SimWorkers: workers}
		for i, n := range names {
			if i < 8 && mask&(1<<i) != 0 {
				o.Platforms = append(o.Platforms, n)
			}
		}
		if reverse {
			for i, j := 0, len(o.Platforms)-1; i < j; i, j = i+1, j-1 {
				o.Platforms[i], o.Platforms[j] = o.Platforms[j], o.Platforms[i]
			}
		}
		if shadow {
			s, _ := platform.LookupSpec("Snowball")
			s.PowerName, s.Power, s.Watts = "", nil, watts
			o.Specs = []platform.Spec{s}
		}
		if withFault {
			o.Fault = &fault.Spec{Seed: seed, MTBFSeconds: mtbf, HorizonSeconds: 100, DowntimeSeconds: 1}
		}
		doc, err := CanonicalJSON(id, o)
		if err != nil {
			if _, kerr := CacheKey(id, o); kerr == nil {
				t.Fatalf("CanonicalJSON failed (%v) but CacheKey succeeded", err)
			}
			return
		}
		want, err := referenceCanonicalJSON(id, o)
		if err != nil {
			t.Fatalf("reference failed where CanonicalJSON succeeded: %v", err)
		}
		if !bytes.Equal(doc, want) {
			t.Fatalf("canonical document differs from the reference:\n got %s\nwant %s", doc, want)
		}
		k1, err := CacheKey(id, o)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		if k1 != hex.EncodeToString(sum[:]) {
			t.Fatalf("CacheKey %s is not the hash of the canonical document", k1)
		}
		o.SimWorkers = workers + 1
		if k2 := mustKey(t, id, o); k2 != k1 {
			t.Fatalf("sim_workers %d and %d keyed differently", workers, workers+1)
		}
	})
}
