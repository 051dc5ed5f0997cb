package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile, averaging the two middle values of an
// even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75}

// tailPercentile is the highest percentile of the ladder that leaves
// at least ten of n samples beyond it, so the reported tail rests on
// ten observations. It returns 0 when n < 40: a smaller sample has no
// tail worth the name, and only its median is meaningful.
func tailPercentile(n int) float64 {
	if n < 40 {
		return 0
	}
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact

			return p
		}
	}
	return 0
}
