//go:build race

package service

// raceEnabled reports whether the race detector is active; allocation
// guards skip under -race, where instrumentation skews alloc counts.
const raceEnabled = true
