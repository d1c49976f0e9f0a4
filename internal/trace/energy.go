package trace

import (
	"cmp"
	"container/heap"
	"slices"

	"montblanc/internal/power"
)

// PowerState maps an interval kind onto the power-accounting state it
// draws: compute and memory phases map one-to-one, every communication
// flavour (send, recv, collective) draws communication power, and
// anything else is idle.
func (k Kind) PowerState() power.State {
	switch k {
	case StateCompute:
		return power.StateCompute
	case StateMemory:
		return power.StateMemory
	case StateSend, StateRecv, StateCollective:
		return power.StateComm
	default:
		return power.StateIdle
	}
}

// EnergyBreakdown is the result of integrating a power profile over a
// trace: the Extrae-style state timeline turned into a power trace.
type EnergyBreakdown struct {
	// Seconds is the integration horizon per rank: the makespan,
	// comm arrivals included (Trace.Duration on a traced run).
	Seconds float64
	// SecondsByState accumulates rank-seconds spent in each accounting
	// state across all ranks (gaps between intervals count as idle).
	SecondsByState map[power.State]float64
	// ByState is the energy in joules drawn in each accounting state,
	// summed over all ranks.
	ByState map[power.State]float64
	// ByRank is the energy in joules drawn by each rank over the whole
	// horizon.
	ByRank []float64
	// Total is the whole-trace energy in joules: the sum of ByState.
	Total float64
}

// Joules returns the energy drawn in the given state.
func (b EnergyBreakdown) Joules(s power.State) float64 { return b.ByState[s] }

// Share returns the fraction of the total energy drawn in the given
// state, or 0 for an empty breakdown.
func (b EnergyBreakdown) Share(s power.State) float64 {
	if b.Total == 0 {
		return 0
	}
	return b.ByState[s] / b.Total
}

// Span is one state of one rank over [Start, End): an Interval without
// the rank, label and drop count, which energy integration never reads.
// simmpi's energy meter (Config.Power) logs one per recorded state.
type Span struct {
	Kind       Kind
	Start, End float64
}

// EnergyByState integrates prof over the trace's per-rank state
// intervals, producing joules per rank and per accounting state. It is
// Energy over the trace's intervals, grouped by rank in recorded order,
// with the trace makespan as the horizon. Intervals of ranks outside
// [0, Ranks) are dropped.
func (t *Trace) EnergyByState(prof power.Profile) EnergyBreakdown {
	perRank := make([][]Span, max(t.Ranks, 0))
	for _, iv := range t.Intervals {
		if iv.Rank < 0 || iv.Rank >= len(perRank) {
			continue
		}
		perRank[iv.Rank] = append(perRank[iv.Rank], Span{iv.Kind, iv.Start, iv.End})
	}
	return Energy(perRank, t.Duration(), prof)
}

// Energy integrates prof over per-rank state spans (perRank[r] is rank
// r's spans in recorded order), producing joules per rank and per
// accounting state. Every rank is charged from time 0 to horizon:
// instants covered by a span draw that state's watts, gaps draw idle
// watts. Overlapping spans resolve exactly like the Gantt rendering —
// collectives paint over everything, explicitly idle spans are
// transparent (they paint the blank glyph, so anything else shows
// through), otherwise the first-recorded span wins — so the energy
// accounting and the timeline picture always agree. Malformed spans
// are clamped to [0, horizon] and inverted ones ignored. Ranks are
// integrated in rank order and each rank in time order, so the sums
// are a pure function of the logs. prof is per rank: integrating a
// node-level profile over a multi-rank-per-node run wants
// prof.Scale(1/cores).
func Energy(perRank [][]Span, horizon float64, prof power.Profile) EnergyBreakdown {
	b := EnergyBreakdown{
		Seconds:        horizon,
		SecondsByState: map[power.State]float64{},
		ByState:        map[power.State]float64{},
		ByRank:         make([]float64, len(perRank)),
	}
	if b.Seconds <= 0 {
		return b
	}
	// Size the reused buffers once, for the longest log.
	longest := 0
	for _, spans := range perRank {
		longest = max(longest, len(spans))
	}
	in := integrator{
		spans:  make([]Span, 0, longest),
		events: make([]event, 0, 2*longest),
		closed: make([]bool, 0, longest),
	}
	for rank, spans := range perRank {
		in.spans = in.spans[:0]
		for _, s := range spans {
			// Idle-drawing kinds are transparent, exactly as in Gantt:
			// they paint the blank glyph, so they neither hide other
			// spans nor change what a gap would be charged anyway.
			if s.End < s.Start || s.Kind.PowerState() == power.StateIdle {
				continue
			}
			if s.Start < 0 {
				s.Start = 0
			}
			if s.End > b.Seconds {
				s.End = b.Seconds
			}
			if s.End <= s.Start {
				continue
			}
			in.spans = append(in.spans, s)
		}
		in.rank(&b, rank, prof)
	}
	return b
}

// event is one span boundary of a rank's sweep line.
type event struct {
	t    float64
	idx  int // index into the rank's span slice
	open bool
}

// integrator holds the sweep-line buffers, reused from rank to rank.
type integrator struct {
	spans  []Span    // the rank's kept spans, recorded order
	events []event   // their boundaries, in time order
	active indexHeap // min-heap of open non-collective span indices, lazily pruned
	closed []bool    // by span index
}

// rank charges one rank from 0 to the horizon with a single sweep over
// its span boundaries — O(N log N) in the rank's span count, not a
// rescan of every span per segment. The active min-heap of recorded
// indices implements the first-writer rule; a counter implements
// collectives-paint-over-everything.
func (in *integrator) rank(b *EnergyBreakdown, rank int, prof power.Profile) {
	in.events = in.events[:0]
	for i, s := range in.spans {
		in.events = append(in.events, event{s.Start, i, true}, event{s.End, i, false})
	}
	slices.SortFunc(in.events, func(x, y event) int { return cmp.Compare(x.t, y.t) })
	in.active = in.active[:0]
	in.closed = slices.Grow(in.closed[:0], len(in.spans))[:len(in.spans)]
	clear(in.closed)
	collectives := 0
	cursor := 0.0
	charge := func(to float64) {
		if to <= cursor {
			return
		}
		state := power.StateIdle
		if collectives > 0 {
			state = StateCollective.PowerState()
		} else {
			for len(in.active) > 0 && in.closed[in.active[0]] {
				heap.Pop(&in.active)
			}
			if len(in.active) > 0 {
				state = in.spans[in.active[0]].Kind.PowerState()
			}
		}
		dt := to - cursor
		joules := prof.Watts(state) * dt
		b.SecondsByState[state] += dt
		b.ByState[state] += joules
		b.ByRank[rank] += joules
		b.Total += joules
		cursor = to
	}
	for ei := 0; ei < len(in.events); {
		now := in.events[ei].t
		charge(now)
		for ; ei < len(in.events) && in.events[ei].t == now; ei++ {
			ev := in.events[ei]
			switch {
			case in.spans[ev.idx].Kind == StateCollective:
				if ev.open {
					collectives++
				} else {
					collectives--
				}
			case ev.open:
				heap.Push(&in.active, ev.idx)
			default:
				in.closed[ev.idx] = true
			}
		}
	}
	charge(b.Seconds) // trailing idle after the rank's last span
}

// indexHeap is a min-heap of span indices: the top is the
// first-recorded open span.
type indexHeap []int

func (h indexHeap) Len() int            { return len(h) }
func (h indexHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h indexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *indexHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *indexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
