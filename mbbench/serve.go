package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service"
	"montblanc/internal/service/store"
	"montblanc/internal/simmpi"
	"montblanc/internal/xrand"
)

// serveIDs are the experiments serve-mixed requests, each in quick mode:
// cheap enough that hits and cold runs both occur many times a round.
var serveIDs = []string{"fig5", "pagealloc", "resilience-daly", "resilience-sweep"}

// serveShape sizes serve-mixed. The LRU holds a quarter of the key
// space, so a Zipf stream yields LRU hits, disk hits (evicted but
// stored) and cold runs in one round.
type serveShape struct {
	Requests    int     // requests per round
	SeedsPerExp int     // distinct Options.Seed values per experiment
	LRU         int     // service.Config.CacheSize
	ZipfS       float64 // Zipf exponent over key popularity ranks
}

var defaultServeShape = serveShape{Requests: 6000, SeedsPerExp: 100, LRU: 100, ZipfS: 1.0}

type serveKey struct {
	ID   string
	Seed uint64
}

// serveInputs is everything serve-mixed sends, generated from the
// workload seed alone.
type serveInputs struct {
	keys   []serveKey
	bodies [][]byte // /v1/run request body per key
	stream []int    // key index of each request, in send order
}

// genServeInputs draws the key set and a Zipf request stream over it:
// key popularity ranks are a seeded permutation of the keys, and rank k
// is drawn with weight 1/(k+1)^s.
func genServeInputs(seed uint64, sh serveShape) serveInputs {
	rng := xrand.New(seed)
	var in serveInputs
	for _, id := range serveIDs {
		for j := 0; j < sh.SeedsPerExp; j++ {
			in.keys = append(in.keys, serveKey{ID: id, Seed: 1 + rng.Uint64()%(1<<31)})
		}
	}
	for _, k := range in.keys {
		body := fmt.Sprintf(`{"experiments":[%q],"options":{"quick":true,"seed":%d}}`, k.ID, k.Seed)
		in.bodies = append(in.bodies, []byte(body))
	}
	byRank := rng.Perm(len(in.keys))
	cdf := make([]float64, len(in.keys))
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), sh.ZipfS)
		cdf[r] = total
	}
	in.stream = make([]int, sh.Requests)
	for i := range in.stream {
		r := sort.SearchFloat64s(cdf, rng.Float64()*total)
		in.stream[i] = byRank[min(r, len(cdf)-1)]
	}
	return in
}

// served is what the benchmark saw for one key over all rounds.
type served struct {
	res       runner.Result // decoded from the key's first body
	responses int           // responses that carried that output
}

// serve is serve-mixed: an in-process service.New over loopback HTTP,
// a fresh store directory and empty LRU every round, and a closed loop
// of keep-alive clients sending the Zipf stream.
type serve struct {
	seed  uint64
	shape serveShape
	base  string // work directory of this run
	fs    string // filesystem type of the store directory

	in     serveInputs
	dir    string
	hs     *http.Server
	served chan error
	url    string
	tport  *http.Transport
	client *http.Client

	mu      sync.Mutex
	refs    map[int][]byte // this round's first body per key
	matched map[int]int    // this round's responses equal to refs
	seen    map[int]*served
	failed  int // output mismatches found across rounds and by finish
}

func newServe(seed uint64, base string, sh serveShape) *serve {
	return &serve{seed: seed, shape: sh, base: base, seen: map[int]*served{}}
}

// setUp generates the inputs, starts a fresh service on a loopback
// listener, opens the clients' connections, and runs each served
// experiment once directly so lazy initialisation finishes before the
// timed phase.
func (s *serve) setUp(r *round) error {
	s.in = genServeInputs(s.seed, s.shape)
	s.dir = filepath.Join(s.base, fmt.Sprintf("store-%d", r.n))
	srv, err := service.New(service.Config{CacheSize: s.shape.LRU, CacheDir: s.dir})
	if err != nil {
		return err
	}
	if s.fs == "" {
		s.fs = fsType(s.dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tport = &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers, DisableCompression: true}
	s.client = &http.Client{Transport: s.tport, Timeout: time.Minute}

	var wg sync.WaitGroup
	errs := make([]error, r.workers)
	for c := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = s.get("/healthz", nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, id := range serveIDs {
		e, ok := experiments.Find(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err := e.Run(io.Discard, experiments.Options{Quick: true}); err != nil {
			return fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	s.refs, s.matched = map[int][]byte{}, map[int]int{}
	return nil
}

// get fetches path and decodes a JSON body into v (nil discards it).
func (s *serve) get(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// wireMetrics is the part of /metrics the benchmark reads.
type wireMetrics struct {
	Requests  uint64 `json:"requests_total"`
	CacheHits uint64 `json:"cache_hits"`
	Runs      uint64 `json:"runs_total"`
	Store     *struct {
		DiskHits    uint64 `json:"disk_hits"`
		BytesOnDisk int64  `json:"bytes_on_disk"`
	} `json:"store"`
}

// outcome is what one request measured.
type outcome struct {
	ms  float64
	hit bool
	ok  bool
}

// run is the timed phase: the clients send the whole stream, closed
// loop, each taking the next request when its previous one completes.
func (s *serve) run(r *round) error {
	start := time.Now()
	e0 := simmpi.Engine()
	out := make([]outcome, len(s.in.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) {
					return
				}
				out[i] = s.send(r, i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var m wireMetrics
	if err := s.get("/metrics", &m); err != nil {
		return err
	}
	if m.Store == nil {
		return errors.New("/metrics has no store section")
	}
	sim := engineDelta(e0, simmpi.Engine())

	var all, hits, cold []float64
	for _, o := range out {
		r.attempted++
		if !o.ok {
			// A failed request misses any latency limit.
			r.failed++
			all = append(all, math.Inf(1))
			continue
		}
		all = append(all, o.ms)
		if o.hit {
			hits = append(hits, o.ms)
		} else {
			cold = append(cold, o.ms)
		}
	}
	r.extra["req_per_s"] = float64(len(out)) / elapsed
	r.extra["latency_samples"] = float64(len(all))
	setPercentile(r.extra, "latency_p50_ms", all, 0.5)
	setPercentile(r.extra, "latency_p99_ms", all, 0.99)

	// Every key is simulated exactly once a round whatever the client
	// interleaving; which tier answers a hit depends on the LRU order,
	// which only one client makes repeatable.
	r.exact["service.runs"] = float64(m.Runs)
	r.exact["simmpi.events"] = sim["simmpi.events"]
	tiers := values{
		"service.hit_ratio": float64(m.CacheHits) / float64(max(m.Requests, 1)),
		"service.lru_hits":  float64(m.CacheHits - m.Store.DiskHits),
		"store.disk_hits":   float64(m.Store.DiskHits),
	}
	if r.workers == 1 {
		for k, v := range tiers {
			r.exact[k] = v
		}
	}
	if r.traced {
		for k, v := range tiers {
			r.layer[k] = v
		}
		// Not exact: each stored entry carries its run's duration as
		// decimal seconds, whose length varies by a few bytes.
		r.layer["store.bytes_on_disk"] = float64(m.Store.BytesOnDisk)
		r.layer["service.runs"] = float64(m.Runs)
		for k, v := range sim {
			r.layer[k] = v
		}
		setPercentile(r.layer, "service.hit_ms_p50", hits, 0.5)
		setPercentile(r.layer, "service.hit_ms_p99", hits, 0.99)
		setPercentile(r.layer, "service.cold_ms_p50", cold, 0.5)
	}
	return nil
}

func setPercentile(vals values, name string, xs []float64, q float64) {
	v, _, err := percentile(xs, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbbench: %s: %v\n", name, err)
		return
	}
	vals[name] = v
}

// send posts request i and checks its body against the first body this
// round returned for the same key: a hit must equal the cold run.
func (s *serve) send(r *round, i int) outcome {
	key := s.in.stream[i]
	var e0 simmpi.EngineStats
	span := r.tr.begin("POST /v1/run", layerService, 0, r.n, i)
	if r.traced {
		e0 = simmpi.Engine()
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", bytes.NewReader(s.in.bodies[key]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o := outcome{ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	if err != nil {
		r.tr.end(span, nil)
		fmt.Fprintf(os.Stderr, "mbbench: request %d: %v\n", i, err)
		return o
	}
	o.hit = resp.Header.Get("X-Montblanc-Cache") == "hits=1 misses=0"
	if r.traced {
		r.tr.end(span, coldInner(body, o.hit, simmpi.Engine().WallSeconds-e0.WallSeconds))
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "mbbench: request %d: %s: %s\n", i, resp.Status, strings.TrimSpace(string(body)))
		return o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.refs[key]
	switch {
	case !ok:
		s.refs[key] = body
	case !bytes.Equal(ref, body):
		fmt.Fprintf(os.Stderr, "mbbench: request %d: body differs from this round's first body for %v\n", i, s.in.keys[key])
		return o
	}
	s.matched[key]++
	o.ok = true
	return o
}

// coldInner splits a cold request's time the way the server reports it:
// the experiment's own run time (the body's "seconds") of which the
// simulator took sim. A hit ran nothing.
func coldInner(body []byte, hit bool, sim float64) map[string]float64 {
	if hit {
		return nil
	}
	var rs []struct {
		Seconds float64 `json:"seconds"`
	}
	if json.Unmarshal(body, &rs) != nil || len(rs) != 1 {
		return nil
	}
	return map[string]float64{layerExperiments: rs[0].Seconds - sim, layerSimMPI: sim}
}

// tearDown stops the round's server and connections, removes its store,
// and folds the round's bodies into the cross-round check: each key's
// output must be the same in every round.
func (s *serve) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.tport.CloseIdleConnections()
	err = errors.Join(err, os.RemoveAll(s.dir))

	for key, body := range s.refs {
		var rs []runner.Result
		if jerr := json.Unmarshal(body, &rs); jerr != nil || len(rs) != 1 || rs[0].ID != s.in.keys[key].ID || rs[0].Err != nil {
			fmt.Fprintf(os.Stderr, "mbbench: %v: body is not one successful result: %.200s\n", s.in.keys[key], body)
			s.failed += s.matched[key]
			continue
		}
		sv := s.seen[key]
		if sv == nil {
			sv = &served{res: rs[0]}
			s.seen[key] = sv
		} else if rs[0].Output != sv.res.Output {
			fmt.Fprintf(os.Stderr, "mbbench: %v: output differs between rounds\n", s.in.keys[key])
			s.failed += s.matched[key]
			continue
		}
		sv.responses += s.matched[key]
	}
	return err
}

// sortedSeen returns the keys seen, in key order.
func (s *serve) sortedSeen() []int {
	keys := make([]int, 0, len(s.seen))
	for k := range s.seen {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// finish re-runs every key served once, directly through
// Experiment.Run, and counts every response whose output differs.
func (s *serve) finish() int {
	for _, key := range s.sortedSeen() {
		k, sv := s.in.keys[key], s.seen[key]
		e, ok := experiments.Find(k.ID)
		var buf bytes.Buffer
		if !ok {
			s.failed += sv.responses
			continue
		}
		if err := e.Run(&buf, experiments.Options{Quick: true, Seed: k.Seed}); err != nil || buf.String() != sv.res.Output {
			fmt.Fprintf(os.Stderr, "mbbench: %v: served output differs from a direct run (err %v)\n", k, err)
			s.failed += sv.responses
		}
	}
	return s.failed
}

// probe times the service's key and encode stages and the store's Get
// and Put directly, over this run's request stream and served results.
func (s *serve) probe(tr *tracer, vals values) error {
	keyUS := make([]float64, 0, len(s.in.stream))
	id := tr.begin("experiments.CacheKey/stream", layerService, 0, 0, -1)
	for _, key := range s.in.stream {
		k := s.in.keys[key]
		start := time.Now()
		if _, err := experiments.CacheKey(k.ID, experiments.Options{Quick: true, Seed: k.Seed}); err != nil {
			tr.end(id, nil)
			return err
		}
		keyUS = append(keyUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	tr.end(id, nil)

	var encUS []float64
	id = tr.begin("report.EncodeJSON/served", layerService, 0, 0, -1)
	for _, key := range s.sortedSeen() {
		start := time.Now()
		if err := report.EncodeJSON(io.Discard, []runner.Result{s.seen[key].res}); err != nil {
			tr.end(id, nil)
			return err
		}
		encUS = append(encUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	tr.end(id, nil)

	putUS, getUS, err := s.probeStore(tr)
	if err != nil {
		return err
	}
	vals["service.key_us"] = median(keyUS)
	vals["service.encode_us"] = median(encUS)
	vals["store.put_us"] = median(putUS)
	vals["store.get_us"] = median(getUS)
	return nil
}

// probeStore puts every served result into a fresh store, as the
// service persists it, then gets each back and checks the bytes.
func (s *serve) probeStore(tr *tracer) (putUS, getUS []float64, err error) {
	dir := filepath.Join(s.base, "probe-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(store.OS{}, dir, 0)
	if err != nil {
		return nil, nil, err
	}
	keys := s.sortedSeen()
	names := make([]string, len(keys))
	blobs := make([][]byte, len(keys))
	for i, key := range keys {
		k := s.in.keys[key]
		if names[i], err = experiments.CacheKey(k.ID, experiments.Options{Quick: true, Seed: k.Seed}); err != nil {
			return nil, nil, err
		}
		if blobs[i], err = json.Marshal(s.seen[key].res); err != nil {
			return nil, nil, err
		}
	}
	for i := range keys {
		id := tr.begin("store.Put", layerStore, 0, 0, -1)
		start := time.Now()
		err := st.Put(names[i], blobs[i])
		putUS = append(putUS, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end(id, nil)
		if err != nil {
			return nil, nil, err
		}
	}
	for i := range keys {
		id := tr.begin("store.Get", layerStore, 0, 0, -1)
		start := time.Now()
		got, ok := st.Get(names[i])
		getUS = append(getUS, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end(id, nil)
		if !ok || !bytes.Equal(got, blobs[i]) {
			return nil, nil, fmt.Errorf("store.Get(%s) did not return what store.Put wrote", names[i])
		}
	}
	return putUS, getUS, nil
}
