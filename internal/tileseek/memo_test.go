package tileseek

import (
	"context"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

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
