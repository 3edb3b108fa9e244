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
	res, reg := planRegistry(t, p, opts)
	return res, reg.Counter("dpipe.dp_cells").Value()
}

// planRegistry is planCells returning the plan's whole registry.
func planRegistry(t *testing.T, p *Problem, opts Options) (Result, *obs.Registry) {
	t.Helper()
	ResetFronts()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	res, err := PlanContext(ctx, p, arch.Cloud(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// A hint the enumeration holds is only a duplicate candidate: the warm plan
// is the cold plan, Result and DP cells alike, at every Parallelism, and the
// hint is seen — dedup_skipped fires once — even under zero-value Options,
// which take the default bounds but keep every caller-set field. The rows
// cover the three ways a candidate is swept: a bipartition (two sweeps), an
// unpartitioned order (two epoch-major sweeps) and an epoch count inside
// the explicit window (one sweep, no extrapolation).
func TestWarmHintMatchesCold(t *testing.T) {
	mha16 := mhaProblem(t, 16)
	canonical, err := mha16.Deps.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Problem
		// hint builds the hint from the cold plan's winner.
		hint func(cold Result) Hint
		// partitioned is whether the hint carries a bipartition.
		partitioned bool
	}{
		{"bipartition", mha16, func(cold Result) Hint { return hintOf(cold)[0] }, true},
		{"unpartitioned", mha16, func(Result) Hint { return Hint{Order: canonical} }, false},
		{"single-sweep", mhaProblem(t, 4), func(cold Result) Hint { return hintOf(cold)[0] }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, coldCells := planCells(t, tc.p, DefaultOptions())
			h := tc.hint(cold)
			if (len(h.First) > 0) != tc.partitioned {
				t.Fatalf("hint %+v: partitioned = %v, want %v", h, len(h.First) > 0, tc.partitioned)
			}
			for _, par := range []int{0, 1, 4} {
				opts := DefaultOptions()
				opts.Parallelism = par
				opts.WarmHints = []Hint{h}
				warm, reg := planRegistry(t, tc.p, opts)
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("parallelism %d: warm plan diverged from cold:\nwarm %+v\ncold %+v", par, warm, cold)
				}
				if cells := reg.Counter("dpipe.dp_cells").Value(); cells != coldCells {
					t.Fatalf("parallelism %d: warm plan spent %d DP cells, cold %d", par, cells, coldCells)
				}
			}
			warm, reg := planRegistry(t, tc.p, Options{WarmHints: []Hint{h}})
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("zero-value options: warm plan diverged from cold:\nwarm %+v\ncold %+v", warm, cold)
			}
			if d := reg.Counter("dpipe.dedup_skipped").Value(); d != 1 {
				t.Fatalf("zero-value options: dedup_skipped = %d, want 1 — the hint was dropped", d)
			}
		})
	}
}

// A valid hint the enumeration lacks joins the candidates: the plan sweeps
// it on top of the cold plan's sweeps and wins with it when it is better.
func TestWarmHintOutsideEnumerationIsSwept(t *testing.T) {
	p := mhaProblem(t, 16)
	full, _ := planCells(t, p, DefaultOptions())
	narrow := Options{MaxBipartitions: 1, MaxOrdersPerPartition: 1, ExplicitEpochs: 12, Parallelism: 1}
	cold, coldCells := planCells(t, p, narrow)
	h := hintOf(full)[0]
	hintCells := obs.NewRegistry().Counter("dpipe.dp_cells")
	alone, err := evaluateOrder(p, arch.Cloud(), h.Order, full.Bipartition.First, narrow.ExplicitEpochs, nil, hintCells)
	if err != nil {
		t.Fatal(err)
	}
	if !(alone.TotalCycles < cold.TotalCycles) {
		t.Fatalf("premise: the full enumeration's winner (%v) does not beat the narrow one (%v)", alone.TotalCycles, cold.TotalCycles)
	}

	opts := narrow
	opts.WarmHints = []Hint{h}
	warm, reg := planRegistry(t, p, opts)
	if d := reg.Counter("dpipe.dedup_skipped").Value(); d != 0 {
		t.Fatalf("premise: the narrow enumeration holds the hint (dedup_skipped = %d)", d)
	}
	if warm.Candidates != cold.Candidates+1 {
		t.Fatalf("warm plan chose among %d candidates, cold %d: the hint did not join", warm.Candidates, cold.Candidates)
	}
	if cells := reg.Counter("dpipe.dp_cells").Value(); cells != coldCells+hintCells.Value() {
		t.Fatalf("warm plan spent %d DP cells, want cold %d + hint %d", cells, coldCells, hintCells.Value())
	}
	if !sameFloat(warm.TotalCycles, alone.TotalCycles) || !reflect.DeepEqual(warm.Order, h.Order) {
		t.Fatalf("warm plan %v %v, want the hint's %v %v", warm.TotalCycles, warm.Order, alone.TotalCycles, h.Order)
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
