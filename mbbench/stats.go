package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 from fewer than 1000 samples rests on a handful of outliers and
// would move from run to run on noise alone.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, together with the sample count it rests on. It
// refuses a quantile with fewer than minBeyond samples above it.
func percentile(xs []float64, q float64) (value float64, n int, err error) {
	n = len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	if beyond := int(math.Floor(float64(n) * (1 - q))); beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[max(rank, 0)], n, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples. It needs no samples beyond it:
// the benchmark takes medians of a few per-round values, which is the
// point of repeating rounds.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
