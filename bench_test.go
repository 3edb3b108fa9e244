package transfusion_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the headline aggregate and the two ablations. Each
// benchmark regenerates its artifact through the same code path as
// cmd/experiments; the benchmark time is the cost of reproducing that
// artifact (dominated by TileSeek rollouts and DPipe schedule search, i.e.
// the framework's own search cost — the quantity a MICRO artifact
// evaluation would measure).
//
// A reduced TileSeek budget keeps a full `go test -bench=.` run tractable;
// cmd/experiments uses the full budget for the recorded numbers.

import (
	"context"
	"testing"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/experiments"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/tileseek"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

func benchOpts() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 8
	opts.DPipe = dpipe.DefaultOptions()
	return opts
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pipeline.ResetSchedules()
		runner := experiments.NewRunner(benchOpts())
		e, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		table, err := e.Run(runner)
		if err != nil {
			b.Fatal(err)
		}
		if table.NumRows() == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

// Tables.

func BenchmarkTable1Mapping(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2BufferReqs(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3ArchSpecs(b *testing.B)  { benchExperiment(b, "table3") }

// Figure 8: speedup over Unfused.

func BenchmarkFig8aSpeedupScaling(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8bSpeedupModels(b *testing.B)  { benchExperiment(b, "fig8b") }

// Figure 9: PE-size scaling on edge.

func BenchmarkFig9aPEScaling(b *testing.B)       { benchExperiment(b, "fig9a") }
func BenchmarkFig9bPEScalingModels(b *testing.B) { benchExperiment(b, "fig9b") }

// Figure 10: utilization.

func BenchmarkFig10aUtilizationScaling(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10bUtilizationModels(b *testing.B)  { benchExperiment(b, "fig10b") }

// Figure 11: speedup-contribution breakdown.

func BenchmarkFig11Contribution(b *testing.B) { benchExperiment(b, "fig11") }

// Figure 12: energy.

func BenchmarkFig12aEnergyScaling(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12bEnergyModels(b *testing.B)  { benchExperiment(b, "fig12b") }

// Figure 13: energy breakdown across the memory hierarchy.

func BenchmarkFig13EnergyBreakdown(b *testing.B) { benchExperiment(b, "fig13") }

// Headline geometric means (abstract / conclusion numbers).

func BenchmarkHeadlineGeomeans(b *testing.B) { benchExperiment(b, "headline") }

// Ablations.

func BenchmarkAblationTileSeek(b *testing.B) { benchExperiment(b, "ablation-tileseek") }
func BenchmarkAblationDPipe(b *testing.B)    { benchExperiment(b, "ablation-dpipe") }

// Component micro-benchmarks: the costs of the framework's two search
// engines in isolation.

// The DPipe and evaluation benchmarks report host-independent counts from an
// obs registry next to ns/op: dp_cells/op (DP instance placements),
// candidates/op (schedules per plan) and evals/op (objective evaluations on
// TileSeek's master trajectory). Every benchmark that plans empties the
// schedule memo and the DPipe front cache at the start of each iteration
// (pipeline.ResetSchedules), so an iteration costs what it would in a fresh
// process and its counts do not depend on b.N.

func BenchmarkDPipePlanMHA(b *testing.B) { benchDPipePlan(b, "mha") }
func BenchmarkDPipePlanFFN(b *testing.B) { benchDPipePlan(b, "ffn") }

func benchDPipePlan(b *testing.B, layer string) {
	prob := buildLlamaProblems(b)[layer]
	spec := cloudSpec()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpipe.ResetFronts()
		if _, err := dpipe.PlanContext(ctx, prob, spec, dpipe.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	reportPerOp(b, reg, "dpipe.dp_cells", "dp_cells/op")
	reportPerOp(b, reg, "dpipe.candidates", "candidates/op")
}

// BenchmarkRunContext runs a fixed list of cold-search specs (two arches,
// two models, three sequence lengths, search budget 8) through RunContext.
// One op is the whole list from an empty schedule memo and DPipe front
// cache, so its counts repeat exactly: dp_cells/op, memo_hits/op (sub-layer
// schedules answered from the memo), front_hits/op (DPipe plans answered
// from a front another spec or rollout left) and allocs/op.
func BenchmarkRunContext(b *testing.B) {
	specs := runContextSpecs()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.ResetSchedules()
		for _, s := range specs {
			if _, err := transfusion.RunContext(ctx, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerOp(b, reg, "dpipe.dp_cells", "dp_cells/op")
	reportPerOp(b, reg, "pipeline.memo_hits", "memo_hits/op")
	reportPerOp(b, reg, "dpipe.front_hits", "front_hits/op")
}

func BenchmarkEvaluateTransFusionCloud64K(b *testing.B) { benchEvaluate(b, "cloud") }
func BenchmarkEvaluateTransFusionEdge64K(b *testing.B)  { benchEvaluate(b, "edge") }

func benchEvaluate(b *testing.B, archName string) {
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	for i := 0; i < b.N; i++ {
		pipeline.ResetSchedules()
		if _, err := experimentsEval(ctx, archName); err != nil {
			b.Fatal(err)
		}
	}
	reportPerOp(b, reg, "tileseek.evaluated", "evals/op")
	reportPerOp(b, reg, "dpipe.dp_cells", "dp_cells/op")
	reportPerOp(b, reg, "pipeline.memo_hits", "memo_hits/op")
}

// runContextSpecs is BenchmarkRunContext's spec list.
func runContextSpecs() []transfusion.RunSpec {
	var specs []transfusion.RunSpec
	for _, a := range []string{"cloud", "edge"} {
		for _, m := range []string{"bert", "llama3"} {
			for _, seq := range []int{1 << 10, 1 << 13, 1 << 15} {
				specs = append(specs, transfusion.RunSpec{Arch: a, Model: m, SeqLen: seq, System: "transfusion", SearchBudget: 8})
			}
		}
	}
	return specs
}

// reportPerOp reports a registry counter divided by b.N under unit.
func reportPerOp(b *testing.B, reg *obs.Registry, counter, unit string) {
	b.ReportMetric(float64(reg.Counter(counter).Value())/float64(b.N), unit)
}

// Helpers for the component micro-benchmarks.

func cloudSpec() arch.Spec { return arch.Cloud() }

func buildLlamaProblems(tb testing.TB) map[string]*dpipe.Problem {
	tb.Helper()
	w := pipeline.Workload{Model: model.Llama3(), SeqLen: model.SeqLength64K, Batch: model.EvalBatch}
	tile, err := tiling.HeuristicTile(w, arch.Cloud())
	if err != nil {
		tb.Fatal(err)
	}
	probs, err := pipeline.BuildProblems(w, arch.Cloud(), pipeline.TransFusion(), tile)
	if err != nil {
		tb.Fatal(err)
	}
	return probs
}

func experimentsEval(ctx context.Context, archName string) (pipeline.Result, error) {
	spec, err := arch.ByName(archName)
	if err != nil {
		return pipeline.Result{}, err
	}
	w := pipeline.Workload{Model: model.Llama3(), SeqLen: model.SeqLength64K, Batch: model.EvalBatch}
	return pipeline.EvaluateContext(ctx, w, spec, pipeline.TransFusion(), benchOpts())
}

// Tile search: TileSeek's serial MCTS driving the objective the pipeline
// uses — a full per-tile evaluation — on the default Llama3-64K workload.
// evals/op counts objective evaluations run and dp_cells/op the DP cells
// they filled.

func BenchmarkSearch(b *testing.B)     { benchSearch(b, arch.Cloud()) }
func BenchmarkSearchEdge(b *testing.B) { benchSearch(b, arch.Edge()) }

func benchSearch(b *testing.B, spec arch.Spec) {
	b.Helper()
	w := pipeline.Workload{Model: model.Llama3(), SeqLen: model.SeqLength64K, Batch: model.EvalBatch}
	space := tileseek.DefaultSpace(w, spec)
	opts := benchOpts()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	objective := func(c tiling.Config) (float64, bool) {
		r, err := pipeline.EvaluateWithTileContext(ctx, w, spec, pipeline.TransFusion(), c, opts)
		if err != nil {
			return 0, false
		}
		return r.TotalCycles * r.Energy.Total(), true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.ResetSchedules()
		res, err := tileseek.SearchWithOptions(ctx, space, objective, tileseek.Options{Iterations: 64, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("search found no feasible tile")
		}
	}
	reportPerOp(b, reg, "tileseek.cache_misses", "evals/op")
	reportPerOp(b, reg, "dpipe.dp_cells", "dp_cells/op")
}

// BenchmarkOpCycles times the per-Einsum cost model, the bottom layer of
// the stack: perf.OpSpec.Cycles on both arrays and perf.OpTraffic with and
// without in-register fusion, over every op of the Llama3-64K cloud
// sub-layer problems at the heuristic tile. One op is the whole list;
// einsums/op is its length.
func BenchmarkOpCycles(b *testing.B) {
	entries := opCycleEntries(b)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += opCyclesPass(entries)
	}
	b.StopTimer()
	if sink <= 0 {
		b.Fatal("cost model returned no cycles")
	}
	b.ReportMetric(float64(len(entries)), "einsums/op")
}

// opCycleEntry is one Einsum of BenchmarkOpCycles with the op names of its
// sub-layer.
type opCycleEntry struct {
	op    perf.OpSpec
	fused map[string]bool
}

// opCycleEntries lists every op of the Llama3-64K cloud sub-layer problems
// at the heuristic tile.
func opCycleEntries(tb testing.TB) []opCycleEntry {
	var entries []opCycleEntry
	for _, p := range buildLlamaProblems(tb) {
		fused := make(map[string]bool, len(p.Ops))
		for name := range p.Ops {
			fused[name] = true
		}
		for _, op := range p.Ops {
			entries = append(entries, opCycleEntry{op, fused})
		}
	}
	return entries
}

// opCyclesPass is one BenchmarkOpCycles op: both arrays' cycles and the
// traffic with and without in-register fusion, for every entry.
func opCyclesPass(entries []opCycleEntry) float64 {
	spec := cloudSpec()
	var sum float64
	for _, e := range entries {
		sum += e.op.Cycles(spec, perf.PE2D) + e.op.Cycles(spec, perf.PE1D)
		sum += perf.OpTraffic(e.op, spec, perf.PE2D, nil).BufferBytes
		sum += perf.OpTraffic(e.op, spec, perf.PE2D, e.fused).BufferBytes
	}
	return sum
}

// Warm-started search: cold vs warm evaluations of the same workload, with
// the hint taken from the neighbouring (half) seq_len's winning plan. The
// headline metric is evals/op — tileseek.cache_misses + dpipe.dp_cells, the
// objective evaluations the search ran plus the DP cells they filled, both
// host-independent — reported next to ns/op.

func BenchmarkSearchWarm(b *testing.B) {
	spec := cloudSpec()
	w := pipeline.Workload{Model: model.Llama3(), SeqLen: model.SeqLength64K, Batch: model.EvalBatch}
	neighbour := w
	neighbour.SeqLen = w.SeqLen / 2
	nres, err := pipeline.Evaluate(neighbour, spec, pipeline.TransFusion(), benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	hint := &pipeline.WarmHint{Tile: nres.Tile, Layers: nres.Plans}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			opts := benchOpts()
			// Twice the suite-wide budget: enough rollouts that the warm
			// reduction dominates the fixed per-evaluation overheads.
			opts.TileSeekIterations = 16
			if mode == "warm" {
				opts.WarmHint = hint
			}
			reg := obs.NewRegistry()
			ctx := obs.WithMetrics(context.Background(), reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipeline.ResetSchedules()
				if _, err := pipeline.EvaluateContext(ctx, w, spec, pipeline.TransFusion(), opts); err != nil {
					b.Fatal(err)
				}
			}
			evals := reg.Counter("tileseek.cache_misses").Value() + reg.Counter("dpipe.dp_cells").Value()
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// Sensitivity extensions.

func BenchmarkSensitivityBandwidth(b *testing.B) { benchExperiment(b, "sensitivity-bandwidth") }
func BenchmarkSensitivityCausal(b *testing.B)    { benchExperiment(b, "sensitivity-causal") }

func BenchmarkAblationAttentionPasses(b *testing.B) { benchExperiment(b, "ablation-attention-passes") }
func BenchmarkStackT5(b *testing.B)                 { benchExperiment(b, "stack-t5") }
