package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// The serving-path benchmarks drive /v1/run through Handler() with
// httptest, one request per iteration, on a quick resilience-sweep: a
// real experiment whose result is a few KB of text. Each bench sets up
// the tier it names, so the three are the service's cost per request
// on each path.

// benchBody is a quick resilience-sweep request at the given seed.
func benchBody(seed int) string {
	return fmt.Sprintf(`{"experiments":["resilience-sweep"],"options":{"quick":true,"seed":%d}}`, seed)
}

// serveOnce sends one /v1/run request straight to the handler and
// fails unless it is answered 200 with the given cache header.
func serveOnce(tb testing.TB, h http.Handler, body, wantCache string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Montblanc-Cache"); got != wantCache {
		tb.Fatalf("cache header %q, want %q", got, wantCache)
	}
}

// BenchmarkServeLRUHit is one request answered from the in-memory LRU.
func BenchmarkServeLRUHit(b *testing.B) {
	h := mustNew(b, Config{}).Handler()
	body := benchBody(0)
	serveOnce(b, h, body, "hits=0 misses=1")
	b.ReportAllocs()
	for b.Loop() {
		serveOnce(b, h, body, "hits=1 misses=0")
	}
}

// BenchmarkServeDiskHit is one request answered from the durable
// store: a one-entry LRU and two alternating keys make every request
// miss memory and hit disk.
func BenchmarkServeDiskHit(b *testing.B) {
	h := mustNew(b, Config{CacheSize: 1, CacheDir: b.TempDir()}).Handler()
	bodies := [2]string{benchBody(0), benchBody(1)}
	for _, body := range bodies {
		serveOnce(b, h, body, "hits=0 misses=1")
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		serveOnce(b, h, bodies[i%2], "hits=1 misses=0")
		i++
	}
}

// BenchmarkServeColdRun is one request that runs its simulation: every
// iteration asks for a new seed. No store is configured, so the
// number is the simulation plus the service's own work, not fsync.
func BenchmarkServeColdRun(b *testing.B) {
	h := mustNew(b, Config{CacheSize: 1}).Handler()
	b.ReportAllocs()
	seed := 0
	for b.Loop() {
		serveOnce(b, h, benchBody(seed), "hits=0 misses=1")
		seed++
	}
}

// TestLRUHitAllocsConstant bounds what one LRU hit allocates, request
// parsing and the httptest recorder included. A hit hashes the
// request's canonical form and copies the stored response element to
// the writer; it decodes and re-encodes nothing. Re-encoding the cached
// result and re-marshalling every platform spec per request cost 103
// allocations and 45.8 KB per hit; now it is 67 and 14.6 KB, and the
// bounds hold the bytes under half of the re-encoding cost.
func TestLRUHitAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	h := mustNew(t, Config{}).Handler()
	body := benchBody(0)
	serveOnce(t, h, body, "hits=0 misses=1")
	hit := func() { serveOnce(t, h, body, "hits=1 misses=0") }
	hit()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, hit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("LRU hit: %.0f allocs, %d bytes per request", allocs, bytes)
	if allocs > 80 {
		t.Errorf("LRU hit allocates %.0f objects, want <= 80", allocs)
	}
	if bytes > 22<<10 {
		t.Errorf("LRU hit allocates %d bytes, want <= %d", bytes, 22<<10)
	}
}
