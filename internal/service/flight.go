package service

import (
	"sync"
	"sync/atomic"
)

// flightCall is one in-flight simulation shared by every request that
// asked for its key while it ran. elem (the result's response element)
// or err is written once, before done is closed; waiters read them
// only after <-done. started flips once the leader has acquired a
// simulation slot: a waiter that times out while started is still
// false was queued behind a saturated semaphore, not behind a slow
// simulation — the distinction between 503 and 504.
type flightCall struct {
	done    chan struct{}
	started atomic.Bool
	elem    []byte
	err     error
}

// flightGroup deduplicates concurrent work by content hash: however
// many requests ask for a key at once, exactly one executes the
// simulation and the rest wait on its call. Unlike
// golang.org/x/sync/singleflight (not vendored here), completion and
// waiting are decoupled: the leader runs detached from any request
// context, so a waiter timing out never cancels or orphans work other
// waiters — or the cache — still want.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// claim returns the call for key, creating it when absent. The second
// return is true for the creator — the leader, who must eventually
// complete the call — and false for joiners, who only wait.
func (g *flightGroup) claim(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	return c, true
}

// complete publishes the leader's element (or the error that kept it
// from producing one) and retires the key. The ordering contract with
// the cache: the caller stores the element in the cache BEFORE
// complete, so a request arriving after the key is forgotten finds it
// in the cache — there is no window where a key is neither cached nor
// in flight yet was already computed.
func (g *flightGroup) complete(key string, c *flightCall, elem []byte, err error) {
	c.elem, c.err = elem, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
}

// inflight returns the number of keys currently being computed.
func (g *flightGroup) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
