package simmpi

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Rank lifecycle: every rank body runs as a coroutine that the run
// creates, resumes and stops on its shard's goroutine. A run that
// fails — deadlock, rank error, rank panic — must still stop every
// coroutine it created, so a long-lived process (montblanc serve)
// leaks nothing per bad request, and a stopped rank's defers must run.

// lifecycleCases are runs that end with ranks still suspended
// mid-program, plus a clean run whose exited ranks are suspended at
// their exit declaration until the run stops them.
var lifecycleCases = []struct {
	name    string
	body    func(p *Proc) error
	wantErr bool
}{
	{"deadlock", func(p *Proc) error {
		return p.Recv((p.Rank()+1)%p.Size(), 9)
	}, true},
	{"error", func(p *Proc) error {
		if p.Rank() == 5 {
			return errors.New("boom")
		}
		return p.Recv(5, 9)
	}, true},
	{"panic", func(p *Proc) error {
		if p.Rank() == 2 {
			panic("kaboom")
		}
		return p.Recv(2, 9)
	}, true},
	{"ok", func(p *Proc) error { return ringBody(p) }, false},
}

// waitGoroutines polls until the goroutine count drops to want,
// giving exiting goroutines a moment to be reaped, and reports a leak
// if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > want {
		t.Errorf("%d goroutines after the runs, %d before: rank coroutines leaked", n, want)
	}
}

func TestRankLifecycleNoLeak(t *testing.T) {
	for _, workers := range []int{0, 4} {
		before := runtime.NumGoroutine()
		for _, tc := range lifecycleCases {
			cfg := starConfig(8, 2)
			cfg.Workers = workers
			for i := 0; i < 5; i++ {
				_, err := Run(cfg, tc.body)
				if (err != nil) != tc.wantErr {
					t.Fatalf("workers=%d %s: err = %v, want error %v", workers, tc.name, err, tc.wantErr)
				}
			}
		}
		waitGoroutines(t, before)
	}
}

// A rank stopped while suspended unwinds through its own defers.
func TestRankLifecycleStopRunsDefers(t *testing.T) {
	for _, workers := range []int{0, 4} {
		var unwound atomic.Int64
		cfg := starConfig(8, 2)
		cfg.Workers = workers
		_, err := Run(cfg, func(p *Proc) error {
			defer unwound.Add(1)
			if p.Rank() < 4 {
				return nil
			}
			return p.Recv(0, 9) // never sent: ranks 4..7 deadlock
		})
		if err == nil {
			t.Fatalf("workers=%d: run did not deadlock", workers)
		}
		if got := unwound.Load(); got != 8 {
			t.Errorf("workers=%d: %d rank defers ran, want 8", workers, got)
		}
	}
}

// A panicking rank body becomes that rank's error, with the same text
// whichever shard (and goroutine) resumed it.
func TestRankLifecyclePanicMessage(t *testing.T) {
	const want = "simmpi: rank 3: rank body panicked: kaboom"
	body := func(p *Proc) error {
		if err := ringBody(p); err != nil {
			return err
		}
		if p.Rank() == 3 {
			panic("kaboom")
		}
		return nil
	}
	for _, workers := range []int{0, 4} {
		cfg := starConfig(8, 2)
		cfg.Workers = workers
		rep, err := Run(cfg, body)
		if err == nil {
			t.Fatalf("workers=%d: panic was not reported (makespan %v)", workers, rep.Seconds)
		}
		if err.Error() != want {
			t.Errorf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}
