package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// A full evaluation of the search-backed system — tile search, sub-layer
// scheduling, phases, energy — must be bit-identical at every Parallelism
// setting and GOMAXPROCS value, with the same search and DPipe counts. Every
// rollout's objective evaluation schedules its sub-layers concurrently above
// Parallelism 1, and at 16 each sub-layer's DPipe candidate pool runs too
// (5 sub-layer workers x 3 candidate workers), so under -race this covers
// both pools inside the objective.
func TestEvaluateParallelismBitIdentical(t *testing.T) {
	w := bertWorkload(4096)
	cloud := arch.Cloud()
	counters := []string{"tileseek.evaluated", "tileseek.cache_misses", "dpipe.plans", "dpipe.dp_cells", "dpipe.front_hits", "dpipe.front_misses"}
	run := func(parallelism int) (Result, obs.Snapshot) {
		opts := fastOpts()
		opts.Parallelism = parallelism
		reg := obs.NewRegistry()
		// Each run plans from an empty front cache, so its counts do not
		// depend on what an earlier run left.
		dpipe.ResetFronts()
		res, err := EvaluateContext(obs.WithMetrics(context.Background(), reg), w, cloud, TransFusion(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	ref, refSnap := run(1)
	if ref.TotalCycles <= 0 || refSnap.Counters["tileseek.evaluated"] == 0 {
		t.Fatalf("degenerate serial reference %+v", ref)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, parallelism := range []int{1, 4, 16, 0} { // 0 resolves to GOMAXPROCS
			res, snap := run(parallelism)
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("GOMAXPROCS=%d parallelism=%d: result diverged from serial\n got %+v\nwant %+v",
					procs, parallelism, res, ref)
			}
			for _, name := range counters {
				if snap.Counters[name] != refSnap.Counters[name] {
					t.Fatalf("GOMAXPROCS=%d parallelism=%d: counter %s = %d, serial %d",
						procs, parallelism, name, snap.Counters[name], refSnap.Counters[name])
				}
			}
		}
	}
}

// The Parallelism budget propagates to DPipe as a share: sub-layer workers
// take min(budget, sub-layers), each DPipe plan gets what is left over per
// sub-layer worker (at least 1), and an explicit DPipe.Parallelism is kept.
func TestParallelismPropagatesToDPipe(t *testing.T) {
	for _, c := range []struct {
		par, dpipe, n int
		sub, dp       int
	}{
		{par: 1, n: 5, sub: 1, dp: 1},
		{par: 2, n: 5, sub: 2, dp: 1},
		{par: 5, n: 5, sub: 5, dp: 1},
		{par: 16, n: 5, sub: 5, dp: 3},
		{par: 3, n: 1, sub: 1, dp: 3},
		{par: 3, dpipe: 2, n: 5, sub: 3, dp: 2},
	} {
		o := Options{Parallelism: c.par}
		o.DPipe.Parallelism = c.dpipe
		sub, dp := o.withDefaults().workers(c.n)
		if sub != c.sub || dp != c.dp {
			t.Errorf("Parallelism %d, DPipe.Parallelism %d, %d sub-layers: workers (%d, %d), want (%d, %d)",
				c.par, c.dpipe, c.n, sub, dp, c.sub, c.dp)
		}
		if c.dpipe == 0 && sub*dp > c.par {
			t.Errorf("Parallelism %d: %d x %d workers exceed the budget", c.par, sub, dp)
		}
	}
}
