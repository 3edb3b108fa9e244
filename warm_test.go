package transfusion

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/dpipe"
)

// warmSearchCost is the host-independent price of a search: the objective
// evaluations the tile search ran (memo misses) plus the DP cells DPipe
// filled. Wall-clock never appears — both counters are deterministic at
// every Parallelism.
func warmSearchCost(reg *Metrics) int64 {
	return reg.Counter("tileseek.cache_misses").Value() + reg.Counter("dpipe.dp_cells").Value()
}

// edp is the search objective (energy-delay product) of a result.
func edp(r RunResult) float64 { return float64(r.Cycles) * r.EnergyPJ.Total() }

// The acceptance oracle for warm-started search: on a neighbouring-seq_len
// miss, a search seeded from the stored neighbour's plan must spend ≥50%
// fewer objective evaluations than the cold search for the same spec, while
// returning a result whose objective is never worse than the cold result's —
// at Parallelism 1 and 4, counter-based and deterministic.
func TestWarmSearchHalvesObjectiveEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("full search comparison is seconds-long")
	}
	base := RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 16}

	// The stored neighbour: a full cold search at seq_len 1024. Its plan is
	// bit-identical at every Parallelism, so one run serves both settings.
	hres, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Plan == nil {
		t.Fatal("search result carries no plan summary to warm-start from")
	}

	for _, par := range []int{1, 4} {
		spec := base
		spec.SeqLen = 2048
		spec.Parallelism = par

		// Each leg plans on an empty DPipe front cache, as a search in a
		// fresh process does, so neither reuses the fronts that the
		// neighbour's search, the other leg or an earlier test left.
		dpipe.ResetFronts()
		coldReg := NewMetrics()
		cold, err := RunContext(WithMetrics(context.Background(), coldReg), spec)
		if err != nil {
			t.Fatal(err)
		}
		warmSpec := spec
		warmSpec.WarmHint = hres.Plan
		dpipe.ResetFronts()
		warmReg := NewMetrics()
		warm, err := RunContext(WithMetrics(context.Background(), warmReg), warmSpec)
		if err != nil {
			t.Fatal(err)
		}

		coldCost, warmCost := warmSearchCost(coldReg), warmSearchCost(warmReg)
		if coldCost <= 0 || warmCost <= 0 {
			t.Fatalf("parallelism %d: degenerate costs cold=%d warm=%d", par, coldCost, warmCost)
		}
		if warmCost*2 > coldCost {
			t.Fatalf("parallelism %d: warm search spent %d objective evaluations, cold %d — less than a 50%% saving",
				par, warmCost, coldCost)
		}
		if edp(warm) > edp(cold) {
			t.Fatalf("parallelism %d: warm objective %g worse than cold %g — never-worse oracle violated",
				par, edp(warm), edp(cold))
		}
		if warm.Degraded {
			t.Fatalf("parallelism %d: warm result degraded: %+v", par, warm)
		}

		// Determinism given identical store state: the same hint yields the
		// same plan, bit for bit.
		again, err := RunContext(context.Background(), warmSpec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, warm) {
			t.Fatalf("parallelism %d: warm search nondeterministic:\n%+v\nvs\n%+v", par, again, warm)
		}
	}
}
