// Package trace provides the measurement utilities the experiments use:
// goodput/throughput meters, the sample statistics (mean, max, ceil-rank
// percentile) every result table is computed with, the linear-bin histogram
// behind the figures' probability density functions, and pcap export.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Meter accumulates a byte count over simulated time and reports rates.
type Meter struct {
	total     uint64
	start     time.Duration
	last      time.Duration
	markTotal uint64
	markTime  time.Duration
}

// NewMeter creates a meter starting at the given simulation time.
func NewMeter(start time.Duration) *Meter {
	return &Meter{start: start, last: start, markTime: start}
}

// Add records n bytes at simulation time now.
func (m *Meter) Add(n int, now time.Duration) {
	m.total += uint64(n)
	m.last = now
}

// Total returns the cumulative byte count.
func (m *Meter) Total() uint64 { return m.total }

// Mark sets a checkpoint; RateSinceMark measures from this point, which lets
// experiments exclude the slow-start transient.
func (m *Meter) Mark(now time.Duration) {
	m.markTotal = m.total
	m.markTime = now
}

// RateMbps returns the average rate since the meter started, in Mbps, using
// the supplied end time.
func (m *Meter) RateMbps(end time.Duration) float64 {
	d := end - m.start
	if d <= 0 {
		return 0
	}
	return float64(m.total) * 8 / d.Seconds() / 1e6
}

// RateSinceMarkMbps returns the rate since the last Mark.
func (m *Meter) RateSinceMarkMbps(end time.Duration) float64 {
	d := end - m.markTime
	if d <= 0 {
		return 0
	}
	return float64(m.total-m.markTotal) * 8 / d.Seconds() / 1e6
}

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
	min, max float64
	any      bool
}

// NewHistogram creates a histogram with the given bin width.
func NewHistogram(binWidth float64) *Histogram {
	return &Histogram{BinWidth: binWidth, counts: make(map[int]int)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	bin := int(math.Floor(v / h.BinWidth))
	h.counts[bin]++
	h.total++
	if !h.any || v < h.min {
		h.min = v
	}
	if !h.any || v > h.max {
		h.max = v
	}
	h.any = true
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Min returns the smallest observation.
func (h *Histogram) Min() float64 { return h.min }

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

// FormatBytes renders a byte count in a human-friendly KB/MB form for tables.
func FormatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
