// Package trace provides the measurement utilities the experiments use: the
// sample statistics (mean, max, ceil-rank percentile) every result table is
// computed with, and pcap export.
package trace

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 when empty), summing in slice
// order. Mean, Max and Percentile are the repo's only sample statistics:
// every latency, completion-time and memory table is one of them over a
// plain []float64.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Max returns the largest value in xs (0 when empty).
func Max(xs []float64) float64 {
	var max float64
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0..100) of xs using the ceil-rank
// convention. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
