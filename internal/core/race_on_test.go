//go:build race

package core

// raceEnabled reports whether the race detector is active; allocation
// guards skip under -race, where instrumentation skews alloc counts.
const raceEnabled = true
