package tileseek

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// A warm-seeded search must (a) record the seed, (b) never end worse than
// the hint's own objective — the hint becomes the incumbent before the first
// rollout — and (c) stay bit-identical across Parallelism settings.
func TestWarmHintNeverWorseAndDeterministic(t *testing.T) {
	s := testSpace()
	obj := syntheticObjective(s.Workload)

	// A mid-quality feasible config as the hint: the best of a tiny search
	// under a different seed.
	seedRes, err := Search(s, obj, 10, 99)
	if err != nil || !seedRes.Found {
		t.Fatalf("seed search: %v found=%v", err, seedRes.Found)
	}
	hint := seedRes.Best
	hintCost, ok := obj(hint)
	if !ok {
		t.Fatal("hint not evaluable")
	}

	run := func(par int) (Result, int64) {
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		h := hint
		res, err := SearchWithOptions(ctx, s, obj, Options{
			Iterations: 60, Seed: 7, Parallelism: par, Hint: &h,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Counter("tileseek.warm_seeds").Value()
	}

	warm, seeds := run(1)
	if seeds != 1 {
		t.Fatalf("tileseek.warm_seeds = %d, want 1", seeds)
	}
	if !warm.Found {
		t.Fatal("warm search found nothing despite a feasible hint")
	}
	if warm.BestCost > hintCost {
		t.Fatalf("warm BestCost %v worse than the hint's %v — never-worse-than-hint violated", warm.BestCost, hintCost)
	}
	for _, par := range []int{1, 4} {
		res, n := run(par)
		if !reflect.DeepEqual(res, warm) {
			t.Fatalf("parallelism %d: warm result diverged:\n%+v\nvs\n%+v", par, res, warm)
		}
		if n != 1 {
			t.Fatalf("parallelism %d: warm_seeds = %d, want 1", par, n)
		}
	}
}

// A hint outside the space (or infeasible) is ignored without perturbing the
// search: the result is bit-identical to a cold run and no seed is counted.
func TestInvalidTileHintColdIdentical(t *testing.T) {
	s := testSpace()
	obj := syntheticObjective(s.Workload)
	cold, err := Search(s, obj, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]tiling.Config{
		"outside space": {B: 7777, D: 3, P: 5, M0: 9, M1: 11, S: 13},
		"infeasible":    {B: s.Bs[len(s.Bs)-1], D: s.Ds[len(s.Ds)-1], P: s.Ps[len(s.Ps)-1], M0: s.M0s[len(s.M0s)-1], M1: s.M1s[len(s.M1s)-1], S: s.Ss[len(s.Ss)-1]},
	} {
		bad := bad
		if name == "infeasible" && tiling.Feasible(bad, s.Workload, s.Spec) {
			t.Skip("max-everything config unexpectedly feasible on this space")
		}
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		warm, err := SearchWithOptions(ctx, s, obj, Options{Iterations: 100, Seed: 7, Hint: &bad})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%s: invalid hint perturbed the search:\nwarm %+v\ncold %+v", name, warm, cold)
		}
		if got := reg.Counter("tileseek.warm_seeds").Value(); got != 0 {
			t.Fatalf("%s: warm_seeds = %d for an invalid hint, want 0", name, got)
		}
	}
}
