// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns a rendered ASCII table whose
// rows/series correspond to the paper's plot; cmd/experiments prints them
// and bench_test.go wraps them as benchmarks. Results are cached per
// (architecture, model, sequence, system) within a Runner, since the
// figures share underlying evaluations.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/flight"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/report"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Runner evaluates systems with caching. It is safe for concurrent use:
// concurrent Evals of the same cell coalesce into one evaluation
// (a flight.Cache), so Prefetch workers and the experiment's own loop never
// duplicate work.
type Runner struct {
	Opts  pipeline.Options
	ctx   context.Context
	cache *flight.Cache[pipeline.Result]
	mu    sync.Mutex
	// notes records degraded evaluations ("key: reason"), one line per
	// evaluated (not cache-hit) cell, for surfacing in experiment output.
	notes []string
}

// NewRunner creates a Runner with the given evaluation options.
func NewRunner(opts pipeline.Options) *Runner {
	return NewRunnerContext(context.Background(), opts)
}

// NewRunnerContext creates a Runner whose evaluations run under ctx:
// cancelling it aborts the in-flight evaluation (within one search rollout /
// schedule candidate) and fails the experiment with an error matching
// faults.ErrCanceled.
func NewRunnerContext(ctx context.Context, opts pipeline.Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{Opts: opts, ctx: ctx, cache: flight.New[pipeline.Result](0, flight.Hooks{})}
}

// Eval evaluates (and caches) one system on one workload/architecture.
func (r *Runner) Eval(spec arch.Spec, m model.Config, seq int, sys pipeline.System) (pipeline.Result, error) {
	return r.eval(spec, m, seq, sys, r.Opts)
}

func (r *Runner) eval(spec arch.Spec, m model.Config, seq int, sys pipeline.System, opts pipeline.Options) (pipeline.Result, error) {
	key := fmt.Sprintf("%s|%s|%d|%s", spec.Name, m.Name, seq, sys.Name)
	ctx := r.Context()
	res, _, err := r.cache.Do(ctx, key, func() (pipeline.Result, bool, error) {
		w := pipeline.Workload{Model: m, SeqLen: seq, Batch: model.EvalBatch}
		res, err := pipeline.EvaluateContext(ctx, w, spec, sys, opts)
		if err != nil {
			return pipeline.Result{}, false, fmt.Errorf("experiments: %s: %w", key, err)
		}
		if res.Degraded {
			r.mu.Lock()
			r.notes = append(r.notes, fmt.Sprintf("%s: degraded: %s", key, res.DegradedReason))
			r.mu.Unlock()
			obs.MetricsFrom(ctx).Counter("experiments.degraded").Inc()
		}
		return res, true, nil
	})
	return res, err
}

// Notes returns the observations collected across this Runner's evaluations
// (currently one line per degraded result), sorted so the listing is
// deterministic regardless of which worker evaluated which cell. Cached hits
// do not re-report.
func (r *Runner) Notes() []string {
	r.mu.Lock()
	out := append([]string(nil), r.notes...)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// Cell identifies one (architecture, model, sequence, system) grid cell of
// an experiment.
type Cell struct {
	Spec  arch.Spec
	Model model.Config
	Seq   int
	Sys   pipeline.System
}

// resolveParallelism maps an Options.Parallelism value to a worker count.
func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Prefetch evaluates independent grid cells concurrently (bounded by
// Opts.Parallelism; 0 selects GOMAXPROCS) and fills the Runner's cache, so
// the experiment's own sequential loop then assembles its table from hits.
// Each cell evaluates serially on its worker, so results are bit-identical
// to lazy serial evaluation.
// Cancellation of the Runner's context stops the pool between cells; cell
// errors do not abort the remaining cells (degraded evaluations are not
// errors at all), and the first error in cell order — the same error the
// serial loop would have hit first — is returned after the pool drains.
// With an effective worker count of 1 Prefetch is a no-op: cells evaluate
// lazily in the experiment loop, exactly as before.
func (r *Runner) Prefetch(cells []Cell) error {
	inflightG := obs.MetricsFrom(r.Context()).Gauge("experiments.cells_inflight")
	workers := resolveParallelism(r.Opts.Parallelism)
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		return nil
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicVal any
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = p
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || r.Context().Err() != nil {
					return
				}
				cell := cells[i]
				inflightG.Add(1)
				_, err := r.eval(cell.Spec, cell.Model, cell.Seq, cell.Sys, r.Opts)
				inflightG.Add(-1)
				if err != nil {
					errs[i] = err
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Context returns the Runner's evaluation context (never nil), so
// experiments that drive the schedulers and searches directly — rather than
// through Eval — honour the same cancellation and report into the same
// metrics registry.
func (r *Runner) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID matches the paper's artifact ("fig8a", "table2", ...).
	ID string
	// Description summarises what the artifact shows.
	Description string
	// Run produces the artifact's table.
	Run func(*Runner) (*report.Table, error)
}

// All lists every experiment in the paper's presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: dimension mapping of each layer onto the 2D PE array", Table1},
		{"table2", "Table 2: buffer requirements per tile for each intra-layer module", Table2},
		{"table3", "Table 3: architecture specifications", Table3},
		{"fig8a", "Fig 8a: Llama3 speedup over Unfused across sequence lengths, cloud+edge", Fig8a},
		{"fig8b", "Fig 8b: model-wise speedup over Unfused at 64K", Fig8b},
		{"fig9a", "Fig 9a: Llama3 speedup on edge with 32x32 and 64x64 2D PE arrays", Fig9a},
		{"fig9b", "Fig 9b: model-wise speedup at 64K under the edge PE variants", Fig9b},
		{"fig10a", "Fig 10a: PE-array utilization for Llama3 on cloud across sequence lengths", Fig10a},
		{"fig10b", "Fig 10b: PE-array utilization per model at 64K on cloud", Fig10b},
		{"fig11", "Fig 11: per-layer speedup-contribution breakdown of TransFusion over FuseMax", Fig11},
		{"fig12a", "Fig 12a: Llama3 energy relative to Unfused across sequence lengths", Fig12a},
		{"fig12b", "Fig 12b: model-wise energy relative to Unfused at 64K", Fig12b},
		{"fig13", "Fig 13: energy breakdown across the memory hierarchy, TransFusion vs FuseMax", Fig13},
		{"headline", "Headline geometric-mean speedups over each baseline", Headline},
		{"ablation-tileseek", "Ablation: TileSeek MCTS vs random vs exhaustive search", AblationTileSeek},
		{"ablation-dpipe", "Ablation: DPipe vs static pipeline vs sequential per sub-layer", AblationDPipe},
		{"ablation-attention-passes", "Ablation: naive vs 2-pass vs 1-pass attention dataflows under DPipe", AblationAttentionPasses},
		{"sensitivity-bandwidth", "Sensitivity: TransFusion vs FuseMax across DRAM bandwidth scales", SensitivityBandwidth},
		{"sensitivity-causal", "Sensitivity: causal (decoder) masking under TransFusion", SensitivityCausal},
		{"stack-t5", "Extension: encoder-decoder stack composition on T5", StackT5},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, faults.Invalidf("experiments: unknown experiment %q", id)
}

// scalingSeqs is the 1K–1M sweep of the scaling figures.
func scalingSeqs() []int { return model.SeqLengths() }

// systemsVsUnfused lists the systems plotted against the Unfused baseline.
func systemsVsUnfused() []pipeline.System {
	return []pipeline.System{pipeline.FLAT(), pipeline.FuseMax(), pipeline.FuseMaxLayerFuse(), pipeline.TransFusion()}
}

// Table1 prints the Table 1 mapping as implemented.
func Table1(*Runner) (*report.Table, error) {
	t := report.NewTable("Table 1: dimension mapping onto the 2D PE array",
		"Layer", "2D PE Row", "2D PE Column")
	t.AddRow("QKV", "p/m0", "h,e (h,f for BV)")
	t.AddRow("MHA", "p", "m0 (f for SLNV/AV)")
	t.AddRow("LayerNorm", "p", "h,f")
	t.AddRow("FFN", "p", "s (h,f for FFN2)")
	return t, nil
}

// Table2 evaluates the buffer-requirement formulas for a representative
// tile on every model, against each architecture's capacity.
func Table2(*Runner) (*report.Table, error) {
	t := report.NewTable("Table 2: buffer requirement per tile (elements; heuristic tile, 64K sequence)",
		"Model", "Arch", "Tile", "QKV", "MHA", "LayerNorm", "FFN", "Capacity", "Fits")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, m := range model.All() {
			w := tiling.Workload{Model: m, SeqLen: model.SeqLength64K, Batch: model.EvalBatch}
			c, err := tiling.HeuristicTile(w, spec)
			if err != nil {
				return nil, err
			}
			pp := c.PPrime(spec)
			t.AddRow(m.Name, spec.Name, c.String(),
				fmt.Sprint(tiling.QKVBufferReq(c, m.H, m.E)),
				fmt.Sprint(tiling.MHABufferReq(c, m.H, m.E, m.F, pp)),
				fmt.Sprint(tiling.LayerNormBufferReq(c, m.H, m.F, pp)),
				fmt.Sprint(tiling.FFNBufferReq(c, m.H, m.F, pp)),
				fmt.Sprint(spec.BufferElements()),
				fmt.Sprint(tiling.Feasible(c, w, spec)))
		}
	}
	return t, nil
}

// Table3 prints the architecture presets.
func Table3(*Runner) (*report.Table, error) {
	t := report.NewTable("Table 3: architecture specification",
		"Name", "2D PE size", "1D PE size", "On-chip Mem.", "DRAM BW")
	for _, name := range []string{"cloud", "edge", "edge32", "edge64"} {
		s, err := arch.ByName(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name,
			fmt.Sprintf("%dx%d", s.PE2D.Rows, s.PE2D.Cols),
			fmt.Sprint(s.PE1DLanes),
			fmt.Sprintf("%dMB", s.BufferBytes>>20),
			fmt.Sprintf("%.0fGB/s", s.DRAMBandwidth/1e9))
	}
	return t, nil
}

// Fig8a: Llama3 speedup over Unfused across sequence lengths on cloud and
// edge.
func Fig8a(r *Runner) (*report.Table, error) {
	return speedupScaling(r, model.Llama3(), []arch.Spec{arch.Cloud(), arch.Edge()},
		"Fig 8a: Llama3 speedup over Unfused (1K-1M)")
}

// Fig8b: model-wise speedup over Unfused at 64K.
func Fig8b(r *Runner) (*report.Table, error) {
	return speedupModels(r, []arch.Spec{arch.Cloud(), arch.Edge()},
		"Fig 8b: speedup over Unfused at 64K across models")
}

// Fig9a: the PE-scaling study on the 32x32 / 64x64 edge variants, Llama3.
func Fig9a(r *Runner) (*report.Table, error) {
	return speedupScaling(r, model.Llama3(), []arch.Spec{arch.Edge32(), arch.Edge64()},
		"Fig 9a: Llama3 speedup over Unfused on edge 32x32 / 64x64 (1K-1M)")
}

// Fig9b: model-wise speedup at 64K under the edge PE variants.
func Fig9b(r *Runner) (*report.Table, error) {
	return speedupModels(r, []arch.Spec{arch.Edge32(), arch.Edge64()},
		"Fig 9b: speedup over Unfused at 64K on edge 32x32 / 64x64")
}

func speedupScaling(r *Runner, m model.Config, specs []arch.Spec, title string) (*report.Table, error) {
	var cells []Cell
	for _, spec := range specs {
		for _, n := range scalingSeqs() {
			cells = append(cells, Cell{spec, m, n, pipeline.Unfused()})
			for _, sys := range systemsVsUnfused() {
				cells = append(cells, Cell{spec, m, n, sys})
			}
		}
	}
	if err := r.Prefetch(cells); err != nil {
		return nil, err
	}
	t := report.NewTable(title, "Arch", "Seq", "FLAT", "FuseMax", "FuseMax+LF", "TransFusion")
	for _, spec := range specs {
		for _, n := range scalingSeqs() {
			unf, err := r.Eval(spec, m, n, pipeline.Unfused())
			if err != nil {
				return nil, err
			}
			row := []string{spec.Name, report.SeqLabel(n)}
			for _, sys := range systemsVsUnfused() {
				res, err := r.Eval(spec, m, n, sys)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(res.Speedup(unf), 2))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

func speedupModels(r *Runner, specs []arch.Spec, title string) (*report.Table, error) {
	var cells []Cell
	for _, spec := range specs {
		for _, m := range model.All() {
			cells = append(cells, Cell{spec, m, model.SeqLength64K, pipeline.Unfused()})
			for _, sys := range systemsVsUnfused() {
				cells = append(cells, Cell{spec, m, model.SeqLength64K, sys})
			}
		}
	}
	if err := r.Prefetch(cells); err != nil {
		return nil, err
	}
	t := report.NewTable(title, "Arch", "Model", "FLAT", "FuseMax", "FuseMax+LF", "TransFusion")
	for _, spec := range specs {
		for _, m := range model.All() {
			unf, err := r.Eval(spec, m, model.SeqLength64K, pipeline.Unfused())
			if err != nil {
				return nil, err
			}
			row := []string{spec.Name, m.Name}
			for _, sys := range systemsVsUnfused() {
				res, err := r.Eval(spec, m, model.SeqLength64K, sys)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(res.Speedup(unf), 2))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig10a: PE utilization for Llama3 on cloud across sequence lengths.
func Fig10a(r *Runner) (*report.Table, error) {
	var cells []Cell
	for _, n := range scalingSeqs() {
		for _, sys := range []pipeline.System{pipeline.FLAT(), pipeline.FuseMax(), pipeline.FuseMaxLayerFuse(), pipeline.TransFusion()} {
			cells = append(cells, Cell{arch.Cloud(), model.Llama3(), n, sys})
		}
	}
	if err := r.Prefetch(cells); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 10a: PE-array utilization, Llama3 on cloud",
		"Seq", "System", "2D util", "1D util")
	for _, n := range scalingSeqs() {
		for _, sys := range []pipeline.System{pipeline.FLAT(), pipeline.FuseMax(), pipeline.FuseMaxLayerFuse(), pipeline.TransFusion()} {
			res, err := r.Eval(arch.Cloud(), model.Llama3(), n, sys)
			if err != nil {
				return nil, err
			}
			t.AddRow(report.SeqLabel(n), sys.Name, report.Pct(res.Utilization2D()), report.Pct(res.Utilization1D()))
		}
	}
	return t, nil
}

// Fig10b: utilization per model at 64K on cloud.
func Fig10b(r *Runner) (*report.Table, error) {
	var cells []Cell
	for _, m := range model.All() {
		for _, sys := range []pipeline.System{pipeline.FuseMax(), pipeline.TransFusion()} {
			cells = append(cells, Cell{arch.Cloud(), m, model.SeqLength64K, sys})
		}
	}
	if err := r.Prefetch(cells); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 10b: PE-array utilization at 64K on cloud",
		"Model", "System", "2D util", "1D util")
	for _, m := range model.All() {
		for _, sys := range []pipeline.System{pipeline.FuseMax(), pipeline.TransFusion()} {
			res, err := r.Eval(arch.Cloud(), m, model.SeqLength64K, sys)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, sys.Name, report.Pct(res.Utilization2D()), report.Pct(res.Utilization1D()))
		}
	}
	return t, nil
}

// Fig11: the Eq. 47–48 speedup-contribution breakdown of TransFusion over
// FuseMax, per layer, across sequence lengths on cloud and edge.
func Fig11(r *Runner) (*report.Table, error) {
	t := report.NewTable("Fig 11: speedup contribution of TransFusion over FuseMax, Llama3",
		"Arch", "Seq", "QKV", "MHA", "Add&LayerNorm", "FFN")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, n := range scalingSeqs() {
			base, err := r.Eval(spec, model.Llama3(), n, pipeline.FuseMax())
			if err != nil {
				return nil, err
			}
			tf, err := r.Eval(spec, model.Llama3(), n, pipeline.TransFusion())
			if err != nil {
				return nil, err
			}
			c := tf.Contribution(base)
			t.AddRow(spec.Name, report.SeqLabel(n),
				report.Pct(c[pipeline.LayerQKV]), report.Pct(c[pipeline.LayerMHA]),
				report.Pct(c[pipeline.LayerNorm]), report.Pct(c[pipeline.LayerFFN]))
		}
	}
	return t, nil
}

// Fig12a: Llama3 energy relative to Unfused across sequence lengths.
func Fig12a(r *Runner) (*report.Table, error) {
	t := report.NewTable("Fig 12a: Llama3 energy relative to Unfused (lower is better)",
		"Arch", "Seq", "FLAT", "FuseMax", "FuseMax+LF", "TransFusion")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, n := range scalingSeqs() {
			unf, err := r.Eval(spec, model.Llama3(), n, pipeline.Unfused())
			if err != nil {
				return nil, err
			}
			row := []string{spec.Name, report.SeqLabel(n)}
			for _, sys := range systemsVsUnfused() {
				res, err := r.Eval(spec, model.Llama3(), n, sys)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(res.EnergyRatio(unf), 2))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig12b: model-wise energy relative to Unfused at 64K.
func Fig12b(r *Runner) (*report.Table, error) {
	t := report.NewTable("Fig 12b: energy relative to Unfused at 64K across models",
		"Arch", "Model", "FLAT", "FuseMax", "FuseMax+LF", "TransFusion")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, m := range model.All() {
			unf, err := r.Eval(spec, m, model.SeqLength64K, pipeline.Unfused())
			if err != nil {
				return nil, err
			}
			row := []string{spec.Name, m.Name}
			for _, sys := range systemsVsUnfused() {
				res, err := r.Eval(spec, m, model.SeqLength64K, sys)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(res.EnergyRatio(unf), 2))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig13: energy breakdown across the memory hierarchy for TransFusion and
// FuseMax on Llama3.
func Fig13(r *Runner) (*report.Table, error) {
	t := report.NewTable("Fig 13: energy breakdown (DRAM / Global Buffer / Register File / PE), Llama3",
		"Arch", "Seq", "System", "DRAM", "Buffer", "RegFile", "PE")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, n := range scalingSeqs() {
			for _, sys := range []pipeline.System{pipeline.TransFusion(), pipeline.FuseMax()} {
				res, err := r.Eval(spec, model.Llama3(), n, sys)
				if err != nil {
					return nil, err
				}
				e := res.Energy
				total := e.Total()
				t.AddRow(spec.Name, report.SeqLabel(n), sys.Name,
					report.Pct(e.DRAM/total), report.Pct(e.Buffer/total),
					report.Pct(e.Reg/total), report.Pct(e.PE/total))
			}
		}
	}
	return t, nil
}

// Headline computes the geometric-mean speedups of TransFusion over each
// baseline across all models and sequence lengths — the abstract's
// 1.6x (cloud) / 2.2x (edge) over FuseMax, 7.0x / 3.2x over FLAT, and
// 1.3x / 1.8x over FuseMax+LayerFuse.
func Headline(r *Runner) (*report.Table, error) {
	var cells []Cell
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, m := range model.All() {
			for _, n := range scalingSeqs() {
				cells = append(cells, Cell{spec, m, n, pipeline.TransFusion()})
				for _, sys := range []pipeline.System{pipeline.FLAT(), pipeline.FuseMax(), pipeline.FuseMaxLayerFuse(), pipeline.Unfused()} {
					cells = append(cells, Cell{spec, m, n, sys})
				}
			}
		}
	}
	if err := r.Prefetch(cells); err != nil {
		return nil, err
	}
	t := report.NewTable("Headline: geomean speedup of TransFusion over each baseline (all models x 1K-1M)",
		"Arch", "vs FLAT", "vs FuseMax", "vs FuseMax+LF", "vs Unfused")
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		ratios := map[string][]float64{}
		for _, m := range model.All() {
			for _, n := range scalingSeqs() {
				tf, err := r.Eval(spec, m, n, pipeline.TransFusion())
				if err != nil {
					return nil, err
				}
				for _, sys := range []pipeline.System{pipeline.FLAT(), pipeline.FuseMax(), pipeline.FuseMaxLayerFuse(), pipeline.Unfused()} {
					base, err := r.Eval(spec, m, n, sys)
					if err != nil {
						return nil, err
					}
					ratios[sys.Name] = append(ratios[sys.Name], tf.Speedup(base))
				}
			}
		}
		t.AddRow(spec.Name,
			report.F(report.Geomean(ratios["flat"]), 2),
			report.F(report.Geomean(ratios["fusemax"]), 2),
			report.F(report.Geomean(ratios["fusemax+layerfuse"]), 2),
			report.F(report.Geomean(ratios["unfused"]), 2))
	}
	return t, nil
}
