package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample: the mean of the two middle values when the
// count is even, so a bimodal sample does not flip between its modes.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPerMille are the tail percentiles a report may quote, ascending, in
// tenths of a percent (integers, so sample counts are exact).
var tailPerMille = []int{900, 950, 990, 999}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it — a tail read off fewer samples is one
// outlier's latency, not a percentile. ok is false when even p90 is too thin
// (n < 100).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPerMille {
		rank := (n*c + 999) / 1000 // nearest rank, rounded up
		if n-rank >= 10 {
			p, ok = float64(c)/10, true
		}
	}
	return p, ok
}

// timing is how every wall-time distribution is reported: the median, the
// tail percentile the sample supports, and the sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tailPercentile,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// summarize renders a millisecond sample as a timing.
func summarize(ms []float64) timing {
	s := sortedCopy(ms)
	t := timing{N: len(s), P50: median(s)}
	if p, ok := tailPercentile(len(s)); ok {
		t.TailP, t.Tail = p, quantile(s, p/100)
	}
	return t
}

// ratio is a/b with 0 for an empty base, so a layer that did no work
// reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the seed mixer every generated input derives from.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
