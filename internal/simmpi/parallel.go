// Windowed commit: with N > 1 shards, each shard runs the commit loop
// (runWindow) on its own goroutine, and events commit in bounded time
// windows whose width is the network's lookahead — the minimum one-way
// latency between distinct nodes. Within a window every shard commits
// its own events independently in (ready, rank) order; all cross-node
// sends are deferred to the window barrier, where a single sweep
// replays them against the network in the merged global (ready, rank)
// order. The result is byte-identical to the one-shard run at any shard
// count; SIMMPI.md walks the exactness argument in full. The short
// version:
//
//   - Mailbox matching is keyed by exact (src, tag) per destination and
//     both sides follow per-rank program order, so recv/message pairing
//     is independent of global commit interleaving. Only the network's
//     link state (busyUntil, drop counters) is order-sensitive.
//   - Intra-node sends traverse only the node's loopback link. Shards
//     own whole nodes, so those reservations are shard-private and the
//     shard's commit order equals the global order restricted to it.
//   - Cross-node sends touch shared links, so their reservations happen
//     in the barrier sweep in exact global order. Deferring them has no
//     observable effect inside the window: the sender's resume time
//     (post + overhead + copy) does not depend on the delivery, and the
//     message cannot arrive — so cannot match a recv — before
//     post + lookahead, which is at or beyond the window edge.
//   - Every op committed in window k has ready >= the window's opening
//     minimum, so a cross send's arrival lands at or past the next
//     window's edge: nothing committed in window k can observe it.
package simmpi

import (
	"math"

	"montblanc/internal/trace"
)

// runWindows drives a windowed run to completion and returns the
// number of windows it barriered.
func (w *world) runWindows() (uint64, error) {
	w.phaseDone = make(chan struct{}, len(w.shards))
	for _, s := range w.shards {
		s.cmd = make(chan float64)
		go w.shardLoop(s)
	}
	defer func() {
		// Each shard stops its ranks' coroutines on its own goroutine
		// before it signals, so none outlives the run.
		for _, s := range w.shards {
			close(s.cmd)
		}
		for range w.shards {
			<-w.phaseDone
		}
	}()
	la := w.cfg.Net.Lookahead()
	windows := uint64(0)
	edge := math.Inf(-1) // first phase only steps every rank to its first declaration
	for {
		for _, s := range w.shards {
			s.cmd <- edge
		}
		for range w.shards {
			<-w.phaseDone
		}
		if err := w.barrier(); err != nil {
			return windows, err
		}
		live := 0
		for _, s := range w.shards {
			live += s.live
		}
		if live == 0 {
			return windows, nil
		}
		// The next window opens at the global minimum ready time (the
		// barrier may have matched recvs into the heaps) and spans one
		// lookahead.
		minNext := math.Inf(1)
		for _, s := range w.shards {
			if m := s.heap.peek(); m != nil && m.ready < minNext {
				minNext = m.ready
			}
		}
		if math.IsInf(minNext, 1) {
			return windows, w.deadlockError()
		}
		edge = minNext + la
		windows++
	}
}

// shardLoop runs one shard on its own goroutine, which creates,
// resumes and stops the shard's rank coroutines: a window per cmd value
// until the channel closes.
func (w *world) shardLoop(s *shard) {
	w.start(s)
	for edge := range s.cmd {
		w.runWindow(s, edge)
		w.phaseDone <- struct{}{}
	}
	s.stop()
	w.phaseDone <- struct{}{}
}

// barrier runs between windows with every shard parked: it drains the
// shards' outboxes merged by (time, rank) — reproducing the one-shard
// link reservation order exactly — delivering into the mailboxes and
// matching parked recvs into their shards' heaps. It returns the
// globally-first error, honouring shard-local failures that interleave
// with barrier deliveries in commit order.
func (w *world) barrier() error {
	cutErr := error(nil)
	cutT, cutR := math.Inf(1), 0
	for _, s := range w.shards {
		if s.err != nil && (cutErr == nil || s.errTime < cutT || (s.errTime == cutT && s.errRank < cutR)) {
			cutErr, cutT, cutR = s.err, s.errTime, s.errRank
		}
	}
	for {
		var best *shard
		var bx *xsend
		for _, s := range w.shards {
			x := s.out.peek()
			if x == nil {
				continue
			}
			if bx == nil || x.time < bx.time || (x.time == bx.time && x.rank < bx.rank) {
				best, bx = s, x
			}
		}
		if bx == nil {
			break
		}
		if cutErr != nil && (bx.time > cutT || (bx.time == cutT && bx.rank > cutR)) {
			return cutErr // the shard-local failure committed first
		}
		best.out.pop()
		if err := w.land(*bx, &w.log); err != nil {
			return err
		}
	}
	return cutErr
}

// mergedComms returns the run's comm log in commit order. A one-shard
// run logged every comm in commit order already. A windowed run merges
// the shards' intra-node logs with the barrier log by (Sent, Src): Sent
// times are strictly increasing per sender (every send pays
// SendOverhead before the next), so the key is unique and the merge
// reproduces the one-shard insertion order — the tie-break trace.Sort's
// stable by-Sent sort depends on.
func (w *world) mergedComms() []trace.Comm {
	if len(w.shards) == 1 {
		return w.shards[0].log.comms
	}
	lists := make([][]trace.Comm, 0, len(w.shards)+1)
	total := 0
	for _, s := range w.shards {
		lists = append(lists, s.log.comms)
		total += len(s.log.comms)
	}
	lists = append(lists, w.log.comms)
	total += len(w.log.comms)
	out := make([]trace.Comm, 0, total)
	cur := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if cur[i] >= len(l) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			c, b := &l[cur[i]], &lists[best][cur[best]]
			if c.Sent < b.Sent || (c.Sent == b.Sent && c.Src < b.Src) {
				best = i
			}
		}
		out = append(out, lists[best][cur[best]])
		cur[best]++
	}
	return out
}
