package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false}, {0, 50, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := tail(xs, c.p); ok != c.want {
			t.Errorf("tail(n=%d, p%g) supported = %v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

// TestZipfStreamMatchesSkew checks the hot-zipf stream's observed rank
// frequencies against P(k) proportional to k^-1.1.
func TestZipfStreamMatchesSkew(t *testing.T) {
	w, _ := workloadByName("hot-zipf")
	in := genInputs(w, 11, fullSize)
	counts := make([]float64, len(in.reqs))
	for _, i := range in.order {
		counts[i]++
	}
	cdf := zipfCDF(len(in.reqs), zipfS)
	for k := 0; k < 20; k++ {
		want := cdf[k]
		if k > 0 {
			want -= cdf[k-1]
		}
		got := counts[k] / float64(len(in.order))
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("rank %d: frequency %.5f, want %.5f", k+1, got, want)
		}
	}
	// The log-log slope between ranks 1 and 32 recovers the skew.
	slope := math.Log(counts[31]/counts[0]) / math.Log(32)
	if math.Abs(slope+zipfS) > 0.05 {
		t.Errorf("fitted exponent %.3f, want %.1f", -slope, zipfS)
	}
}
