package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service/store"
)

// elementResults covers the result shapes a response can carry: an
// errored result, HTML characters, control characters, an empty
// output and a non-ASCII title.
func elementResults() []runner.Result {
	return []runner.Result{
		{ID: "a<b>&c", Title: "HTML <&> and \"quotes\"", Output: "x < y && y > z\n", Duration: 1500 * time.Millisecond},
		{ID: "broken", Title: "fails", Output: "partial\x00\x01\x1f\t\r\n ", Duration: 3 * time.Microsecond, Err: errors.New("no <converge> & stop")},
		{ID: "empty", Title: "Ω ünïcode", Output: "", Duration: 0},
	}
}

// A response assembled from encoded elements is byte-identical to
// report.EncodeJSON of the results, for every prefix of the table
// (including none).
func TestElementsMatchEncodeJSON(t *testing.T) {
	all := elementResults()
	for n := 0; n <= len(all); n++ {
		rs := all[:n]
		elems := make([][]byte, n)
		for i, r := range rs {
			e, err := encodeElement(r)
			if err != nil {
				t.Fatal(err)
			}
			elems[i] = e
		}
		var got, want bytes.Buffer
		if err := writeElements(&got, elems); err != nil {
			t.Fatal(err)
		}
		if err := report.EncodeJSON(&want, rs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d results: assembled body differs:\n got %q\nwant %q", n, got.Bytes(), want.Bytes())
		}
	}
}

// unreachable is an experiment whose result must come from a cache
// tier: running it fails the test.
func unreachable(t *testing.T, r runner.Result) experiments.Experiment {
	return experiments.Experiment{ID: r.ID, Title: r.Title, Run: func(io.Writer, experiments.Options) error {
		t.Errorf("%s simulated; it must be served from the cache", r.ID)
		return nil
	}}
}

// TestMultiExperimentBodyFromCache: a /v1/run answered entirely from
// stored elements is report.EncodeJSON of the same results, in request
// order, errors and escapes included.
func TestMultiExperimentBodyFromCache(t *testing.T) {
	rs := elementResults()
	var es []experiments.Experiment
	for _, r := range rs {
		es = append(es, unreachable(t, r))
	}
	s := mustNew(t, Config{Match: fakeMatch(es...)})
	opts := experiments.Options{Quick: true, Seed: 5}
	for _, r := range rs {
		key, err := experiments.CacheKey(r.ID, opts)
		if err != nil {
			t.Fatal(err)
		}
		elem, err := encodeElement(r)
		if err != nil {
			t.Fatal(err)
		}
		s.cache.add(key, elem)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids, _ := json.Marshal([]string{rs[2].ID, rs[0].ID, rs[1].ID})
	resp, body := postRun(t, ts, fmt.Sprintf(`{"experiments":%s,"options":{"quick":true,"seed":5}}`, ids))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Montblanc-Cache"); got != "hits=3 misses=0" {
		t.Errorf("cache header %q, want hits=3 misses=0", got)
	}
	var want bytes.Buffer
	if err := report.EncodeJSON(&want, []runner.Result{rs[2], rs[0], rs[1]}); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("body from cached elements differs from report.EncodeJSON:\n got %q\nwant %q", body, want.String())
	}
}

// putStored writes payload into a store at dir under the key of (id,
// opts), as a server over dir would address it.
func putStored(t *testing.T, dir, id string, opts experiments.Options, payload []byte) {
	t.Helper()
	st, err := store.Open(store.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, err := experiments.CacheKey(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
}

// TestCompactStoreEntryServed: an entry in the earlier store format —
// the result's compact json.Marshal bytes — is served byte-identically
// to report.EncodeJSON of that result, without a simulation.
func TestCompactStoreEntryServed(t *testing.T) {
	for _, r := range elementResults() {
		dir := t.TempDir()
		compact, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		putStored(t, dir, r.ID, experiments.Options{Quick: true}, compact)

		s := mustNew(t, Config{Match: fakeMatch(unreachable(t, r)), CacheDir: dir})
		ts := httptest.NewServer(s.Handler())
		ids, _ := json.Marshal([]string{r.ID})
		resp, body := postRun(t, ts, fmt.Sprintf(`{"experiments":%s,"options":{"quick":true}}`, ids))
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.ID, resp.StatusCode, body)
		}
		var want bytes.Buffer
		if err := report.EncodeJSON(&want, []runner.Result{r}); err != nil {
			t.Fatal(err)
		}
		if body != want.String() {
			t.Errorf("%s: compact store entry served as\n%q\nwant\n%q", r.ID, body, want.String())
		}
	}
}

// TestNonObjectStoreEntryRecomputed: a checksum-valid payload that is
// not one JSON object is a miss: recomputed and overwritten, never
// served.
func TestNonObjectStoreEntryRecomputed(t *testing.T) {
	payloads := []string{`[1,2]`, `"text"`, `42`, `null`, `{"id":`, `{"id":"x"} {}`, ``, `  `}
	for _, p := range payloads {
		dir := t.TempDir()
		var runs atomic.Int64
		exp := experiments.Experiment{ID: "toy", Title: "a deterministic toy", Run: func(w io.Writer, o experiments.Options) error {
			runs.Add(1)
			fmt.Fprintln(w, "stable output")
			return nil
		}}
		opts := experiments.Options{Quick: true, Seed: 2}
		putStored(t, dir, exp.ID, opts, []byte(p))

		var logged atomic.Int64
		logf := func(format string, args ...interface{}) {
			if strings.Contains(format, "stale store entry") {
				logged.Add(1)
			}
		}
		body := `{"experiments":["toy"],"options":{"quick":true,"seed":2}}`
		s := mustNew(t, Config{Match: fakeMatch(exp), CacheDir: dir, Logf: logf})
		ts := httptest.NewServer(s.Handler())
		resp, got := postRun(t, ts, body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("payload %q: status %d: %s", p, resp.StatusCode, got)
		}
		if !strings.Contains(got, `"output": "stable output\n"`) || resp.Header.Get("X-Montblanc-Cache") != "hits=0 misses=1" {
			t.Errorf("payload %q: served %q (%s), want a recomputed result", p, got, resp.Header.Get("X-Montblanc-Cache"))
		}
		if runs.Load() != 1 || logged.Load() != 1 {
			t.Errorf("payload %q: %d runs and %d stale-entry logs, want 1 and 1", p, runs.Load(), logged.Load())
		}

		// The recomputed element replaced the bad entry: a restarted
		// server serves it from disk, byte-identically.
		s2 := mustNew(t, Config{Match: fakeMatch(exp), CacheDir: dir})
		ts2 := httptest.NewServer(s2.Handler())
		resp2, warm := postRun(t, ts2, body)
		ts2.Close()
		if warm != got || resp2.Header.Get("X-Montblanc-Cache") != "hits=1 misses=0" || runs.Load() != 1 {
			t.Errorf("payload %q: restart served %q (%s) after %d runs, want the recomputed bytes from disk",
				p, warm, resp2.Header.Get("X-Montblanc-Cache"), runs.Load())
		}
	}
}
