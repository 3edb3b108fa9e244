package transfusion

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

// warmSearchCost is the host-independent price of a search: the objective
// evaluations the tile search ran (memo misses) plus the DP cells DPipe
// filled. Wall-clock never appears — both counters are deterministic.
func warmSearchCost(reg *Metrics) int64 {
	return reg.Counter("tileseek.cache_misses").Value() + reg.Counter("dpipe.dp_cells").Value()
}

// edp is the search objective (energy-delay product) of a result.
func edp(r RunResult) float64 { return float64(r.Cycles) * r.EnergyPJ.Total() }

// The acceptance oracle for warm-started search: on a neighbouring-seq_len
// miss, a search seeded from the stored neighbour's plan must spend ≥50%
// fewer objective evaluations than the cold search for the same spec, while
// returning a result whose objective is never worse than the cold result's —
// counter-based and deterministic.
func TestWarmSearchHalvesObjectiveEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("full search comparison is seconds-long")
	}
	base := RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 16}

	// The stored neighbour: a full cold search at seq_len 1024.
	hres, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Plan == nil {
		t.Fatal("search result carries no plan summary to warm-start from")
	}

	spec := base
	spec.SeqLen = 2048

	// Each leg plans on an empty schedule memo and DPipe front cache, as a
	// search in a fresh process does, so neither reuses the schedules or
	// fronts that the neighbour's search, the other leg or an earlier test
	// left.
	pipeline.ResetSchedules()
	coldReg := NewMetrics()
	cold, err := RunContext(WithMetrics(context.Background(), coldReg), spec)
	if err != nil {
		t.Fatal(err)
	}
	warmSpec := spec
	warmSpec.WarmHint = hres.Plan
	pipeline.ResetSchedules()
	warmReg := NewMetrics()
	warm, err := RunContext(WithMetrics(context.Background(), warmReg), warmSpec)
	if err != nil {
		t.Fatal(err)
	}

	coldCost, warmCost := warmSearchCost(coldReg), warmSearchCost(warmReg)
	if coldCost <= 0 || warmCost <= 0 {
		t.Fatalf("degenerate costs cold=%d warm=%d", coldCost, warmCost)
	}
	t.Logf("search cost: warm %d, cold %d", warmCost, coldCost)
	if warmCost*2 > coldCost {
		t.Fatalf("warm search spent %d objective evaluations, cold %d — less than a 50%% saving",
			warmCost, coldCost)
	}
	if edp(warm) > edp(cold) {
		t.Fatalf("warm objective %g worse than cold %g — never-worse oracle violated",
			edp(warm), edp(cold))
	}
	if warm.Degraded {
		t.Fatalf("warm result degraded: %+v", warm)
	}

	// Determinism given identical store state: the same hint yields the
	// same plan, bit for bit.
	again, err := RunContext(context.Background(), warmSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, warm) {
		t.Fatalf("warm search nondeterministic:\n%+v\nvs\n%+v", again, warm)
	}
}
