package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a tail metric may fall back
// through when a run has too few samples for the one it asked for.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supportedPercentile returns the highest ladder percentile not above want
// that leaves at least ten of the n samples beyond it, so a reported tail
// is never one or two outliers. With fewer than twenty samples nothing
// beyond the median qualifies and 50 is returned.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if n-(rankIndex(n, p)+1) >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
