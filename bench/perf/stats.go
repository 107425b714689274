package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of vs by linear interpolation between
// order statistics (the "inclusive" method); vs need not be sorted.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// spread is the interquartile range as a share of the median: the run-to-run
// noise figure every bound is compared with.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / math.Abs(m)
}

// concat joins slices in order.
func concat[T any](lists ...[]T) []T {
	var all []T
	for _, l := range lists {
		all = append(all, l...)
	}
	return all
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
