package transfusion_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// ledger is BENCH_layers.json: the host-independent counts of the layer
// benchmarks, gated exactly, and their steady-state allocations per op,
// gated within AllocsTolerance. Wall-clock figures ride along in each
// entry's info and are never checked.
type ledger struct {
	AllocsTolerance float64 `json:"allocs_tolerance"`
	Benchmarks      []struct {
		Name        string           `json:"name"`
		Counts      map[string]int64 `json:"counts"`
		AllocsPerOp float64          `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// ledgerOp is one benchmark op as the ledger measures it: run it against
// reg from an empty schedule memo and DPipe front cache.
type ledgerOp func(t *testing.T, ctx context.Context)

func ledgerOps(t *testing.T) map[string]ledgerOp {
	mha := buildLlamaProblems(t)["mha"]
	entries := opCycleEntries(t)
	return map[string]ledgerOp{
		"BenchmarkRunContext": func(t *testing.T, ctx context.Context) {
			pipeline.ResetSchedules()
			for _, s := range runContextSpecs() {
				if _, err := transfusion.RunContext(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
		},
		"BenchmarkEvaluateTransFusionCloud64K": func(t *testing.T, ctx context.Context) {
			pipeline.ResetSchedules()
			if _, err := experimentsEval(ctx, "cloud"); err != nil {
				t.Fatal(err)
			}
		},
		"BenchmarkDPipePlanMHA": func(t *testing.T, ctx context.Context) {
			dpipe.ResetFronts()
			if _, err := dpipe.PlanContext(ctx, mha, cloudSpec(), dpipe.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		},
		"BenchmarkOpCycles": func(t *testing.T, ctx context.Context) {
			obs.MetricsFrom(ctx).Counter("einsums").Add(int64(len(entries)))
			if opCyclesPass(entries) <= 0 {
				t.Fatal("cost model returned no cycles")
			}
		},
	}
}

// ledgerCounters maps each ledger count onto the registry counter that
// feeds it (the benchmarks report the same counters per op).
var ledgerCounters = map[string]string{
	"dp_cells":   "dpipe.dp_cells",
	"front_hits": "dpipe.front_hits",
	"memo_hits":  "pipeline.memo_hits",
	"evals":      "tileseek.evaluated",
	"candidates": "dpipe.candidates",
	"einsums":    "einsums", // counted by the op itself: len(opCycleEntries)
}

// The layer benchmarks' counts match BENCH_layers.json exactly: one op of
// each, from an empty schedule memo and front cache, fills the recorded DP
// cells, answers the recorded memo and front hits, and evaluates the
// recorded tiles and candidates. Outside -race, each op's steady-state
// allocations (testing.AllocsPerRun, after one warm-up op) also stay within
// the ledger's tolerance. A change that moves a figure updates the ledger
// and says why.
func TestLayerCountsMatchLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve cold searches per op")
	}
	data, err := os.ReadFile("BENCH_layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var want ledger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	ops := ledgerOps(t)
	var diff []string
	for _, bm := range want.Benchmarks {
		op, ok := ops[bm.Name]
		if !ok {
			t.Fatalf("ledger names %s, which this test does not run", bm.Name)
		}
		reg := obs.NewRegistry()
		op(t, obs.WithMetrics(context.Background(), reg))
		names := make([]string, 0, len(bm.Counts))
		for name := range bm.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			counter, ok := ledgerCounters[name]
			if !ok {
				t.Fatalf("%s: unknown ledger count %q", bm.Name, name)
			}
			if got := reg.Counter(counter).Value(); got != bm.Counts[name] {
				diff = append(diff, fmt.Sprintf("%s %s/op: ledger %d, got %d", bm.Name, name, bm.Counts[name], got))
			}
		}
		if raceEnabled {
			continue // the race detector changes allocation counts
		}
		ctx := obs.WithMetrics(context.Background(), obs.NewRegistry())
		allocs := testing.AllocsPerRun(3, func() { op(t, ctx) })
		if math.Abs(allocs-bm.AllocsPerOp) > math.Ceil(want.AllocsTolerance*bm.AllocsPerOp) {
			diff = append(diff, fmt.Sprintf("%s allocs/op: ledger %.0f (±%.0f%%), got %.0f",
				bm.Name, bm.AllocsPerOp, 100*want.AllocsTolerance, allocs))
		}
	}
	if len(diff) > 0 {
		t.Fatalf("BENCH_layers.json disagrees with this build:\n  %s", strings.Join(diff, "\n  "))
	}
}
