// Package trace provides the measurement utilities the experiments use: the
// sample statistics (mean, max, ceil-rank percentile) every result table is
// computed with, the linear-bin histogram behind the figures' probability
// density functions, and pcap export.
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

// Histogram builds a probability density function over fixed-width bins, used
// for the latency PDFs in Figures 7 and 10.
type Histogram struct {
	// BinWidth is the bin size.
	BinWidth float64
	counts   map[int]int
	total    int
	max      float64
}

// NewHistogram creates a histogram with the given bin width.
func NewHistogram(binWidth float64) *Histogram {
	return &Histogram{BinWidth: binWidth, counts: make(map[int]int)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	bin := int(math.Floor(v / h.BinWidth))
	h.counts[bin]++
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// Bin is one histogram bin of the PDF.
type Bin struct {
	// Low is the inclusive lower edge of the bin.
	Low float64
	// Fraction is the share of observations in the bin (0..1).
	Fraction float64
	// Count is the raw number of observations.
	Count int
}

// PDF returns the normalized bins in increasing order.
func (h *Histogram) PDF() []Bin {
	if h.total == 0 {
		return nil
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bin, 0, len(keys))
	for _, k := range keys {
		out = append(out, Bin{
			Low:      float64(k) * h.BinWidth,
			Fraction: float64(h.counts[k]) / float64(h.total),
			Count:    h.counts[k],
		})
	}
	return out
}

// Mean returns the mean of the recorded observations (bin-center
// approximation).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for k, c := range h.counts {
		center := (float64(k) + 0.5) * h.BinWidth
		sum += center * float64(c)
	}
	return sum / float64(h.total)
}
