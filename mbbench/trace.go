package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layer names, after the repository's modules.
const (
	layerRunner      = "runner"      // internal/runner
	layerExperiments = "experiments" // the experiment drivers
	layerSimMPI      = "simmpi"      // scheduler plus network, cluster and apps/*
	layerMembench    = "membench"    // strided sweeps over internal/cache and internal/mem
	layerService     = "service"     // decode, key, LRU, singleflight, encode
	layerStore       = "store"       // internal/service/store
)

// spanLayers lists the layers whose self time the traced run reports,
// in report order.
var spanLayers = []string{layerRunner, layerExperiments, layerSimMPI, layerMembench, layerService, layerStore}

// span is one timed call the benchmark made into a layer. Spans are
// recorded only from the benchmark's own code, around its calls into
// the program; what happens deeper is known only from what the program
// reports back, which Inner carries.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Round  int    `json:"round"`  // timed round, or 0 for the layer probes
	Req    int    `json:"req"`    // request id within the round; -1 for non-request spans
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are seconds since the run began.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Inner is time the program reports it spent inside this span in
	// deeper layers, by layer: for an experiments.Results call, the
	// experiment's own duration (experiments) and the simulator's
	// host seconds (simmpi, from simmpi.Engine deltas). It is already
	// self time: the simmpi part is not counted in the experiments part.
	Inner map[string]float64 `json:"inner,omitempty"`
}

// tracer records spans in memory; write dumps them at the end. A
// tracer that is off records nothing and costs one branch per call,
// which is how the untraced rounds of a traced run stay comparable.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) begin(name, layer string, parent, round, req int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Round: round, Req: req,
		Name: name, Layer: layer, Start: now,
	})
	return len(t.spans)
}

// end closes span id, attaching the inner time the program reported.
func (t *tracer) end(id int, inner map[string]float64) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Inner = inner
}

// selfTimes returns each layer's self time over the spans of one round:
// a span's duration minus its children's durations and its inner time,
// plus the inner time attributed to deeper layers. Children of one span
// never overlap — the traced run has one worker and one client — so
// summing their durations is the part of the parent they cover.
func (t *tracer) selfTimes(round int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int]float64)
	for _, s := range t.spans {
		if s.Round == round && s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Round != round {
			continue
		}
		own := s.End - s.Start - covered[s.ID]
		for layer, secs := range s.Inner {
			own -= secs
			self[layer] += secs
		}
		self[s.Layer] += own
	}
	return self
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
