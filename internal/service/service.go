// Package service implements `montblanc serve`: a long-running
// HTTP/JSON API that answers experiment requests from a
// content-addressed result cache.
//
// The determinism suite (see internal/experiments) proves every
// experiment is a pure function of its Options plus the resolved
// platform specs, so one execution's Result can be replayed verbatim
// for every later request with the same content hash
// (experiments.CacheKey). The server keeps a bounded LRU of results,
// each stored as its encoded response element, in front of the
// existing internal/runner pool, with singleflight-style deduplication
// so N concurrent identical requests cost one simulation.
//
// Endpoints, schemas and the cache-key recipe are documented in
// SERVICE.md at the repository root.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/fault"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service/store"
	"montblanc/internal/simmpi"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds simulations executing at once across all
	// requests (<= 0 means GOMAXPROCS). Requests needing more work
	// queue on the limit rather than being rejected; the per-request
	// timeout bounds how long they wait.
	MaxConcurrent int
	// CacheSize bounds the in-memory result cache in entries (0 means
	// 1024; negative is a configuration error New rejects).
	CacheSize int
	// CacheDir enables the durable result tier: a disk-backed,
	// content-addressed store under the in-memory LRU, so a restarted
	// (even SIGKILLed) server serves prior results from request one.
	// "" disables persistence.
	CacheDir string
	// CachePersistMaxBytes bounds the durable tier's payload bytes on
	// disk; oldest entries are pruned first. <= 0 means unlimited.
	CachePersistMaxBytes int64
	// RequestTimeout bounds one /v1/run request (0 means 60s). A
	// timed-out request gets a structured 504; the underlying
	// simulation keeps running and lands in the cache for the retry.
	RequestTimeout time.Duration
	// ShutdownGrace bounds draining on shutdown (0 means 30s).
	ShutdownGrace time.Duration
	// Match resolves request experiment arguments (IDs, globs, "all");
	// nil means experiments.Match. Injection point for tests.
	Match func(args ...string) ([]experiments.Experiment, error)
	// List enumerates the experiments /v1/experiments advertises; nil
	// means experiments.All.
	List func() []experiments.Experiment
	// Logf receives service lifecycle lines; nil means silent.
	Logf func(format string, args ...interface{})
}

// Server is the simulation service. Create with New, expose with
// Handler (tests and embedding) or Serve (listener plus graceful
// shutdown).
type Server struct {
	cfg    Config
	match  func(args ...string) ([]experiments.Experiment, error)
	list   func() []experiments.Experiment
	cache  *resultCache
	store  *store.Store // durable tier under the LRU; nil without CacheDir
	flight *flightGroup
	sem    chan struct{} // counting semaphore: one token per running simulation
	met    *metrics
	mux    *http.ServeMux

	// baseCtx is the lifetime of detached simulation leaders; Serve
	// cancels it after the HTTP side has drained, aborting queued
	// leaders nobody is waiting for. wg tracks those leaders so
	// shutdown can wait for the ones already simulating.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// errShuttingDown marks work refused because the server is draining.
var errShuttingDown = errors.New("shutting down")

// errSaturated marks a request that timed out while its simulation was
// still queued behind -max-concurrent busy slots: the service is
// overloaded (503 + Retry-After), not slow (504). The leader keeps its
// queue position either way — the work still lands in the cache.
var errSaturated = errors.New("all simulation slots busy")

// New builds a Server from the config. It fails on an invalid config
// (negative CacheSize) or when the durable tier's directory cannot be
// prepared.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("service: CacheSize must be >= 0, got %d", cfg.CacheSize)
	}
	mc := cfg.MaxConcurrent
	if mc <= 0 {
		mc = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:    cfg,
		match:  cfg.Match,
		list:   cfg.List,
		cache:  newResultCache(cfg.CacheSize),
		flight: newFlightGroup(),
		sem:    make(chan struct{}, mc),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
	}
	if cfg.CacheDir != "" {
		st, err := store.Open(store.OS{}, cfg.CacheDir, cfg.CachePersistMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("service: opening result store: %w", err)
		}
		s.store = st
	}
	if s.match == nil {
		s.match = experiments.Match
	}
	if s.list == nil {
		s.list = experiments.All
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) requestTimeout() time.Duration {
	if s.cfg.RequestTimeout > 0 {
		return s.cfg.RequestTimeout
	}
	return 60 * time.Second
}

func (s *Server) shutdownGrace() time.Duration {
	if s.cfg.ShutdownGrace > 0 {
		return s.cfg.ShutdownGrace
	}
	return 30 * time.Second
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve runs the service on ln until ctx is cancelled, then drains
// gracefully: the listener stops accepting, in-flight HTTP requests
// complete (their simulations run to the end), detached leaders that
// have not started simulating are aborted, and ones mid-simulation are
// awaited — all bounded by ShutdownGrace. Returns nil on a clean
// drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.logf("montblanc serve: listening on http://%s", ln.Addr())

	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}

	s.logf("montblanc serve: shutting down, draining in-flight work")
	drainCtx, cancel := context.WithTimeout(context.Background(), s.shutdownGrace())
	defer cancel()
	// Order matters: drain the HTTP side first so every request that
	// made it in completes (handlers block on their simulations), THEN
	// abort the detached leaders nobody is waiting for.
	err := srv.Shutdown(drainCtx)
	s.stop()
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-drainCtx.Done():
		err = errors.Join(err, fmt.Errorf(
			"service: %d simulations still running at grace deadline", s.flight.inflight()))
	}
	<-errc // always http.ErrServerClosed once Shutdown has run
	return err
}

// --- wire types ---------------------------------------------------

// runRequest is the /v1/run request body.
type runRequest struct {
	// Experiments selects what to run: exact IDs, path.Match globs
	// ("fig3*") or the keyword "all" — the same grammar as the CLI.
	Experiments []string `json:"experiments"`
	// Options mirrors experiments.Options.
	Options wireOptions `json:"options"`
	// Specs are request-scoped inline machine specs: resolvable (and
	// able to shadow registered names) for this request only, never
	// registered globally.
	Specs []platform.Spec `json:"specs,omitempty"`
}

type wireOptions struct {
	Quick     bool     `json:"quick"`
	Seed      uint64   `json:"seed"`
	Platforms []string `json:"platforms,omitempty"`
	// SimWorkers selects the DES scheduler for this request's
	// simulations (<= 1 sequential reference, > 1 conservative-
	// parallel shards; clamped to simmpi.MaxWorkers). Output is
	// byte-identical at any value, so it is deliberately excluded from
	// the cache key: a cached result serves requests at any worker
	// count.
	SimWorkers int `json:"sim_workers,omitempty"`
	// Fault is an optional fault schedule for the resilience
	// experiments (see FAULT.md). Unlike sim_workers it changes
	// experiment output, so it IS cache-key material: a fault-injected
	// request never replays a failure-free entry.
	Fault *fault.Spec `json:"fault,omitempty"`
}

// wireError is the structured error envelope every non-2xx response
// carries.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	s.met.requestErrors.Add(1)
	var we wireError
	we.Error.Code = code
	we.Error.Message = fmt.Sprintf(format, args...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = report.EncodeJSON(w, we) // response-writer errors have no recovery path
}

// --- handlers -----------------------------------------------------

// maxRequestBytes bounds a /v1/run body; inline platform specs are the
// only bulky field and a few MiB covers hundreds of machines.
const maxRequestBytes = 4 << 20

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	s.met.inflightReqs.Add(1)
	defer s.met.inflightReqs.Add(-1)

	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "decoding request: %v", err)
		return
	}
	if len(req.Experiments) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			`"experiments" must name at least one experiment ID, glob or "all"`)
		return
	}

	if req.Options.SimWorkers < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_options",
			"options.sim_workers must be >= 0, got %d", req.Options.SimWorkers)
		return
	}
	if req.Options.SimWorkers > simmpi.MaxWorkers {
		req.Options.SimWorkers = simmpi.MaxWorkers
	}
	// Validate the fault schedule up front: hostile numbers (NaN rates,
	// negative MTBFs, non-positive checkpoint intervals) are a 400
	// naming the field, not a per-experiment failure buried in results.
	if req.Options.Fault != nil {
		if err := req.Options.Fault.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_fault", "%v", err)
			return
		}
	}
	opts := experiments.Options{
		Quick:      req.Options.Quick,
		Seed:       req.Options.Seed,
		Platforms:  req.Options.Platforms,
		Specs:      req.Specs,
		SimWorkers: req.Options.SimWorkers,
		Fault:      req.Options.Fault,
	}
	// Validate inline specs up front so a bad machine is a 400 naming
	// the spec, not a per-experiment failure buried in results.
	if _, err := opts.Resolver(); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", "%v", err)
		return
	}
	es, err := s.match(req.Experiments...)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "unknown_experiment", "%v", err)
		return
	}
	keys := make([]string, len(es))
	for i, e := range es {
		if keys[i], err = experiments.CacheKey(e.ID, opts); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_options", "%v", err)
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout())
	defer cancel()

	// Dispatch the experiments as weighted tasks on the runner pool —
	// heaviest first (LPT), one slot per experiment — with each task
	// resolving through cache → flight group → semaphore. The pool
	// tops out at the simulation concurrency limit; the cross-request
	// bound is the semaphore.
	out := make([][]byte, len(es))
	hit := make([]bool, len(es))
	tasks := make([]runner.Task, len(es))
	for i := range es {
		i := i
		tasks[i] = runner.Task{
			ID:     es[i].ID,
			Title:  es[i].Title,
			Weight: es[i].Cost,
			Run: func(io.Writer) error {
				elem, fromCache, err := s.resolve(ctx, es[i], opts, keys[i])
				if err != nil {
					return err
				}
				out[i], hit[i] = elem, fromCache
				return nil
			},
		}
	}
	pool := runner.Pool{Workers: cap(s.sem)}
	for _, tr := range pool.Run(tasks) {
		if tr.Err == nil {
			continue
		}
		switch {
		case errors.Is(tr.Err, errSaturated):
			secs := int(s.requestTimeout() / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.writeError(w, http.StatusServiceUnavailable, "saturated",
				"experiment %s waited %s for a simulation slot (all %d busy); it stays queued and lands in the cache — retry later",
				tr.ID, s.requestTimeout(), cap(s.sem))
		case errors.Is(tr.Err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout, "timeout",
				"experiment %s did not finish within %s (it keeps running; retry to hit the cache)",
				tr.ID, s.requestTimeout())
		case errors.Is(tr.Err, context.Canceled), errors.Is(tr.Err, errShuttingDown):
			s.writeError(w, http.StatusServiceUnavailable, "unavailable", "experiment %s: %v", tr.ID, tr.Err)
		default:
			s.writeError(w, http.StatusInternalServerError, "internal", "experiment %s: %v", tr.ID, tr.Err)
		}
		return
	}

	// The body is the established wire form — the same bytes
	// `montblanc -json` emits — assembled from the stored elements, so
	// a cache hit is byte-identical to the cold run. Cache
	// observability rides in a header, never the body.
	hits := 0
	for _, h := range hit {
		if h {
			hits++
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Montblanc-Cache", "hits="+strconv.Itoa(hits)+" misses="+strconv.Itoa(len(es)-hits))
	_ = writeElements(w, out) // response-writer errors have no recovery path
}

// resolve produces the result for one (experiment, options) pair:
// straight from the cache, by joining an in-flight identical
// computation, or by becoming the leader that runs it. Only the wait
// is bound to the request context — the computation itself is
// detached, so a timed-out requester never cancels work other waiters
// (or the cache) still want.
func (s *Server) resolve(ctx context.Context, e experiments.Experiment, o experiments.Options, key string) (elem []byte, fromCache bool, err error) {
	if elem, ok := s.cache.get(key); ok {
		s.met.cacheHits.Add(1)
		return elem, true, nil
	}
	// Second tier: the durable store. A disk hit is still a cache hit
	// (the simulation is not re-run — the point of persistence); it is
	// promoted into the LRU so subsequent lookups stay in memory.
	if elem, ok := s.diskGet(key); ok {
		s.met.cacheHits.Add(1)
		s.cache.add(key, elem)
		return elem, true, nil
	}
	s.met.cacheMisses.Add(1)
	c, leader := s.flight.claim(key)
	if leader {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			elem, err := s.execute(e, o, key, c)
			s.flight.complete(key, c, elem, err)
		}()
	}
	select {
	case <-c.done:
		if c.err != nil {
			return nil, false, c.err
		}
		return c.elem, false, nil
	case <-ctx.Done():
		// A deadline that expired while the leader was still queued for
		// a simulation slot is saturation, not slowness: the semaphore
		// was full past the whole request timeout. The leader keeps its
		// queue position — the work still lands in the cache.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && !c.started.Load() {
			s.met.rejected.Add(1)
			return nil, false, errSaturated
		}
		return nil, false, ctx.Err()
	}
}

// execute runs one simulation under the concurrency limit, encodes
// its result once into the response element, and stores that. It is
// the only place experiment code runs in the service.
func (s *Server) execute(e experiments.Experiment, o experiments.Options, key string, c *flightCall) ([]byte, error) {
	// Double-check the cache: this leader may have claimed the key in
	// the window after a previous leader stored the result but before
	// its flight retired — rerunning would be wasted work (never a
	// wrong answer; the one-simulation guarantee is the product).
	if elem, ok := s.cache.get(key); ok {
		c.started.Store(true) // replayed, never queued: hits are not saturation
		return elem, nil
	}
	select {
	case s.sem <- struct{}{}:
		c.started.Store(true)
	case <-s.baseCtx.Done():
		// Not cached: the refusal is transient, the value under this
		// key is not.
		return nil, errShuttingDown
	}
	defer func() { <-s.sem }()
	var buf bytes.Buffer
	start := time.Now()
	err := e.Run(&buf, o)
	res := runner.Result{
		ID:       e.ID,
		Title:    e.Title,
		Output:   buf.String(),
		Duration: time.Since(start),
		Err:      err,
	}
	s.met.recordRun(res)
	elem, err := encodeElement(res)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	s.cache.add(key, elem)
	s.diskPut(key, elem)
	return elem, nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	es := s.list()
	entries := make([]entry, 0, len(es))
	for _, e := range es {
		entries = append(entries, entry{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, entries)
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, platform.Specs())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, evictions := s.cache.stats()
	var ss *store.Stats
	if s.store != nil {
		v := s.store.Stats()
		ss = &v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, s.met.snapshot(entries, evictions, s.flight.inflight(), ss))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
