package tileseek

import (
	"context"
	"runtime"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// The search is serial: SearchWithOptions returns a bit-identical Result,
// and identical counters, at every GOMAXPROCS and whatever the ignored
// Options.Parallelism says.
func TestSearchParallelismBitIdentical(t *testing.T) {
	s := testSpace()
	obj := syntheticObjective(s.Workload)
	const budget, seed = 400, 7

	run := func(parallelism int) (Result, obs.Snapshot) {
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		res, err := SearchWithOptions(ctx, s, obj, Options{
			Iterations: budget, Seed: seed, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}

	ref, refSnap := run(1)
	if !ref.Found {
		t.Fatal("serial reference found nothing")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, parallelism := range []int{1, 4, 0} {
			res, snap := run(parallelism)
			if res != ref {
				t.Fatalf("GOMAXPROCS=%d parallelism=%d: result %+v != serial %+v",
					procs, parallelism, res, ref)
			}
			for _, name := range []string{"tileseek.rollouts", "tileseek.evaluated", "tileseek.pruned", "tileseek.cache_hits", "tileseek.cache_misses"} {
				if snap.Counters[name] != refSnap.Counters[name] {
					t.Fatalf("GOMAXPROCS=%d parallelism=%d: counter %s = %d, serial %d",
						procs, parallelism, name, snap.Counters[name], refSnap.Counters[name])
				}
			}
		}
	}
}

// Memoized values must be indistinguishable from fresh evaluations: the
// objective runs once per distinct configuration, every cost the search
// reports equals a direct call, and hits + misses account for every
// consumed evaluation.
func TestObjectiveCacheCorrectness(t *testing.T) {
	s := testSpace()
	pure := syntheticObjective(s.Workload)

	calls := map[tiling.Config]int{}
	obj := func(c tiling.Config) (float64, bool) {
		calls[c]++
		return pure(c)
	}

	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	res, err := SearchWithOptions(ctx, s, obj, Options{Iterations: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range calls {
		if n != 1 {
			t.Fatalf("objective ran %d times for %v, want once", n, c)
		}
	}
	if fresh, ok := pure(res.Best); !ok || fresh != res.BestCost {
		t.Fatalf("best cost %v does not match a fresh evaluation %v", res.BestCost, fresh)
	}

	snap := reg.Snapshot()
	hits, misses := snap.Counters["tileseek.cache_hits"], snap.Counters["tileseek.cache_misses"]
	if hits == 0 {
		t.Fatalf("memo never hit (hits=%d misses=%d)", hits, misses)
	}
	if misses != int64(len(calls)) {
		t.Fatalf("cache_misses = %d, objective ran for %d configurations", misses, len(calls))
	}
	if hits+misses != int64(res.Evaluated) {
		t.Fatalf("hits+misses = %d, want consumed evaluations %d", hits+misses, res.Evaluated)
	}
}
