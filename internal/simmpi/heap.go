package simmpi

// opHeap is a binary min-heap of executable operations ordered by
// (ready, rank): strictly-smaller ready wins and ties go to the lowest
// rank, the total order an O(Ranks) scan of the pending table would
// pick, at O(log Ranks) per commit. The determinism contract of the
// package rests on that equivalence; equivalence_test.go checks every
// commit of one-shard runs against such a scan.
type opHeap struct {
	a []*op
}

// opLess orders ops by (ready, rank) ascending.
func opLess(x, y *op) bool {
	return x.ready < y.ready || (x.ready == y.ready && x.rank < y.rank)
}

// push inserts an executable op.
func (h *opHeap) push(o *op) {
	h.a = append(h.a, o)
	h.up(len(h.a) - 1)
}

// peek returns the op with the smallest (ready, rank) without removing
// it, or nil when the heap is empty. The commit loop peeks to decide
// whether the minimum commits before the window edge.
func (h *opHeap) peek() *op {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// pop removes and returns the op with the smallest (ready, rank), or
// nil when the heap is empty.
func (h *opHeap) pop() *op {
	if len(h.a) == 0 {
		return nil
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil // drop the stale reference so ops don't leak
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *opHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !opLess(h.a[i], h.a[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *opHeap) down(i int) {
	n := len(h.a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && opLess(h.a[r], h.a[l]) {
			s = r
		}
		if !opLess(h.a[s], h.a[i]) {
			return
		}
		h.swap(i, s)
		i = s
	}
}

func (h *opHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
}
