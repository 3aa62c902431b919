package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported
// at. It is coarse on purpose: the chosen rung depends on the sample
// count, and a coarse ladder keeps two runs of similar length on the
// same rung.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest rung of tailLadder that leaves at
// least minBeyond of n samples beyond it; the median when none does.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder[1:] {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// beyond counts the samples of n that lie strictly above the
// nearest-rank q-th percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest-rank index of the q-th percentile of n
// samples.
func rank(n int, q float64) int {
	// The epsilon keeps q*n/100 from rounding up past an exact rank
	// (99.9% of 10000 is 9990, not 9990.000000000002).
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs, sorting a
// copy; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latencySummary is the headline view of one latency sample set.
type latencySummary struct {
	N     int
	P50   float64 // ms
	TailQ float64 // percentile the tail is reported at
	Tail  float64 // ms
}

func summarize(ms []float64) latencySummary {
	q := tailPercentile(len(ms))
	return latencySummary{N: len(ms), P50: median(ms), TailQ: q, Tail: percentile(ms, q)}
}

func (s latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.3fms p%g=%.3fms", s.N, s.P50, s.TailQ, s.Tail)
}
