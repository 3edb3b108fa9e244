package dpipe

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// planCells runs PlanContext under a fresh registry on an empty front
// cache, so the plan sweeps its candidates however often p was planned
// before, and returns the result plus the dpipe.dp_cells it spent.
func planCells(t *testing.T, p *Problem, opts Options) (Result, int64) {
	t.Helper()
	ResetFronts()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	res, err := PlanContext(ctx, p, arch.Cloud(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Counter("dpipe.dp_cells").Value()
}

// A valid hint must leave the winning schedule bit-identical to a cold plan
// while its incumbent bound prunes DP work — and the pruned cell count must
// be identical at every Parallelism (the bound is fixed before the fan-out).
func TestWarmHintPrunesWithoutChangingWinner(t *testing.T) {
	p := mhaProblem(t, 16)
	cold, coldCells := planCells(t, p, DefaultOptions())

	warmOpts := DefaultOptions()
	warmOpts.WarmHints = []Hint{{Order: cold.Order, First: cold.Bipartition.FirstSorted()}}
	warm, warmCells := planCells(t, p, warmOpts)

	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm winner diverged from cold:\nwarm %+v\ncold %+v", warm, cold)
	}
	if warmCells >= coldCells {
		t.Fatalf("warm plan spent %d DP cells, cold %d — the hint bound never pruned", warmCells, coldCells)
	}
	for _, par := range []int{1, 4} {
		opts := warmOpts
		opts.Parallelism = par
		res, cells := planCells(t, p, opts)
		if !reflect.DeepEqual(res, cold) {
			t.Fatalf("parallelism %d: warm winner diverged from cold", par)
		}
		if cells != warmCells {
			t.Fatalf("parallelism %d: dp_cells %d != %d — warm pruning is nondeterministic across worker counts",
				par, cells, warmCells)
		}
	}
}

// An unpartitioned hint (empty First) exercises the checkpointed single-sweep
// regime; the bound it sets is the canonical order's own total, which still
// prunes worse interleavings without touching the winner.
func TestWarmHintUnpartitionedRegime(t *testing.T) {
	p := mhaProblem(t, 16)
	canonical, err := p.Deps.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	cold, coldCells := planCells(t, p, DefaultOptions())
	opts := DefaultOptions()
	opts.WarmHints = []Hint{{Order: canonical}}
	warm, warmCells := planCells(t, p, opts)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("unpartitioned hint changed the winner:\nwarm %+v\ncold %+v", warm, cold)
	}
	if warmCells >= coldCells {
		t.Fatalf("unpartitioned hint never pruned: %d cells warm, %d cold", warmCells, coldCells)
	}
}

// When the epoch count fits inside the explicit DP window there is no
// extrapolation tail; the hint bound applies to the single exact sweep.
func TestWarmHintSingleSweepRegime(t *testing.T) {
	p := mhaProblem(t, 4)
	cold, coldCells := planCells(t, p, DefaultOptions())
	opts := DefaultOptions()
	opts.WarmHints = []Hint{{Order: cold.Order, First: cold.Bipartition.FirstSorted()}}
	warm, warmCells := planCells(t, p, opts)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm winner diverged in the single-sweep regime")
	}
	if warmCells >= coldCells {
		t.Fatalf("single-sweep regime never pruned: %d cells warm, %d cold", warmCells, coldCells)
	}
}

// Hints that do not validate against the DAG are ignored entirely: the plan
// and its DP cell spend are bit-identical to a cold one.
func TestInvalidWarmHintIsIgnored(t *testing.T) {
	p := mhaProblem(t, 16)
	cold, coldCells := planCells(t, p, DefaultOptions())
	dup := append([]string{cold.Order[0]}, cold.Order[:len(cold.Order)-1]...)
	for name, h := range map[string]Hint{
		"foreign nodes":    {Order: []string{"A", "B", "C"}},
		"wrong length":     {Order: cold.Order[:len(cold.Order)-1]},
		"duplicate node":   {Order: dup},
		"first not subset": {Order: cold.Order, First: []string{"NOPE"}},
		"first everything": {Order: cold.Order, First: cold.Order},
	} {
		opts := DefaultOptions()
		opts.WarmHints = []Hint{h}
		res, cells := planCells(t, p, opts)
		if !reflect.DeepEqual(res, cold) {
			t.Fatalf("%s: invalid hint changed the plan", name)
		}
		if cells != coldCells {
			t.Fatalf("%s: invalid hint changed DP cell spend (%d vs cold %d)", name, cells, coldCells)
		}
	}
}

// Zero-value Options take the default bounds but keep every caller-set
// field: a warm hint given without explicit caps still prunes, and the
// winner is the cold one.
func TestWarmHintKeptUnderZeroOptions(t *testing.T) {
	p := mhaProblem(t, 16)
	cold, coldCells := planCells(t, p, Options{})
	warm, warmCells := planCells(t, p, Options{WarmHints: []Hint{{Order: cold.Order, First: cold.Bipartition.FirstSorted()}}})
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm winner diverged from cold:\nwarm %+v\ncold %+v", warm, cold)
	}
	if warmCells >= coldCells {
		t.Fatalf("zero-value options with a hint spent %d DP cells, cold %d — the hint was dropped", warmCells, coldCells)
	}
}
