package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples is mostly noise.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n samples.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n))))
}

// percentile returns the nearest-rank p-th percentile of xs, which must be
// sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// tail returns the p-th percentile of sorted and whether the sample
// supports it: at least minBeyond samples must lie above its rank.
func tail(sorted []float64, p float64) (float64, bool) {
	if len(sorted) == 0 || len(sorted)-rank(len(sorted), p) < minBeyond {
		return 0, false
	}
	return percentile(sorted, p), true
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (the lower middle for even n);
// 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sorted(xs), 50)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// zipfCDF returns the cumulative distribution of ranks 1..n under
// P(rank k) proportional to k^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// zipfDraw maps a uniform u in [0, 1) to a 0-based rank under cdf.
func zipfDraw(cdf []float64, u float64) int {
	return min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
}
