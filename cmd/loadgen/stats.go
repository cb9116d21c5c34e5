package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank method. Samples need not be sorted; the slice is
// not modified. Zero samples yield 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
