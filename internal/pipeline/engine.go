package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/cascade"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/tileseek"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Objective selects what TileSeek optimises — the paper notes "the
// resulting energy or latency can serve as the reward signal" (§5.1).
type Objective int

const (
	// ObjectiveEDP minimises the energy-delay product (the default: it
	// breaks latency ties on compute-bound workloads in favour of less
	// traffic).
	ObjectiveEDP Objective = iota
	// ObjectiveLatency minimises modelled cycles.
	ObjectiveLatency
	// ObjectiveEnergy minimises modelled energy.
	ObjectiveEnergy
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveLatency:
		return "latency"
	case ObjectiveEnergy:
		return "energy"
	default:
		return "edp"
	}
}

// Options tune the evaluation; the zero value requests defaults.
type Options struct {
	// TileSeekIterations is the MCTS rollout budget for TransFusion's
	// outer-tiling search.
	TileSeekIterations int
	// TileSeekSeed seeds the search for reproducibility.
	TileSeekSeed uint64
	// TileSeekObjective selects the search's reward signal.
	TileSeekObjective Objective
	// TileSeekTimeout, when positive, soft-bounds the tile search's
	// wall-clock time. If the timeout expires while the caller's own context
	// is still live, the evaluation degrades to the heuristic tile instead
	// of failing; cancellation of the caller's context always propagates as
	// an error matching faults.ErrCanceled.
	TileSeekTimeout time.Duration
	// TileSeekSpace, when non-nil, replaces the default search space. Used
	// by tests and external tools to constrain or stress the search (e.g. a
	// deliberately infeasible space exercises the degradation path).
	TileSeekSpace *tileseek.Space
	// SkipSearch evaluates search-backed systems (TransFusion) on the static
	// heuristic tile without running TileSeek at all, reporting the result as
	// Degraded. Serving layers use it as the bottom tier of their overload
	// degradation ladder: the heuristic tile is always a valid configuration,
	// so a loaded server can answer cheaply instead of shedding. Baselines
	// that never search are unaffected.
	SkipSearch bool
	// DPipe bounds the per-layer schedule search.
	DPipe dpipe.Options
	// WarmHint, when non-nil, seeds the searches from a previously winning
	// plan for a neighbouring workload: Tile warm-starts TileSeek's MCTS
	// (pre-expanding and crediting the hinted path so its objective becomes
	// the incumbent) and each Layers entry warm-starts the matching
	// sub-layer's DPipe enumeration (a hinted candidate the enumeration lacks
	// joins its candidates). Hints are advisory: entries that do not
	// validate against the current space or DAG are ignored, a warm
	// evaluation is deterministic given the hint, and its objective is never
	// worse than the hint's own. A valid hint also shrinks
	// the TileSeek rollout budget (see warmBudgetDivisor) — the incumbent
	// replaces most of the exploration a cold search pays for. With WarmHint
	// nil the evaluation is bit-identical to today's cold path.
	WarmHint *WarmHint
	// Parallelism bounds how many goroutines one evaluation runs at once: 0
	// selects GOMAXPROCS, 1 the fully serial path. The tile search itself is
	// serial; every evaluation of a tile — each rollout's and the winner's —
	// schedules its sub-layers on min(Parallelism, sub-layers) workers, and
	// unless DPipe.Parallelism is set explicitly each sub-layer's DPipe
	// candidate pool gets max(1, Parallelism / sub-layer workers), so the
	// two pools never multiply past the budget. Results are bit-identical at
	// every setting for a fixed seed.
	Parallelism int
	// Progress, when non-nil, receives typed obs events during evaluation:
	// PhaseStart/PhaseEnd around the tile search, per-rollout RolloutDone,
	// per-plan EnumerationProgress, and Degraded on heuristic fallback. With
	// Parallelism above 1 the hook may be invoked from worker goroutines;
	// invocations are serialised by the engine, so the hook itself needs no
	// locking.
	Progress obs.ProgressFunc
}

// A warm-hinted evaluation runs TileSeek on a reduced rollout budget: the
// hint supplies a near-optimal incumbent, so the search only needs enough
// rollouts to explore its neighbourhood. The divisor keeps the warm budget
// proportional to the requested one; the floor keeps tiny budgets exploring
// at all. Correctness never depends on the budget — the hint is consumed as
// the incumbent before the first rollout, so the warm result's objective is
// never worse than the hint's at any setting.
const (
	warmBudgetDivisor = 4
	warmBudgetFloor   = 4
)

// DefaultOptions is the evaluation configuration used by the experiment
// harness.
func DefaultOptions() Options {
	return Options{
		TileSeekIterations: 128,
		TileSeekSeed:       1,
		DPipe:              dpipe.DefaultOptions(),
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.TileSeekIterations <= 0 {
		o.TileSeekIterations = d.TileSeekIterations
	}
	if o.TileSeekSeed == 0 {
		o.TileSeekSeed = d.TileSeekSeed
	}
	if o.DPipe.MaxBipartitions <= 0 {
		par := o.DPipe.Parallelism
		o.DPipe = d.DPipe
		o.DPipe.Parallelism = par
	}
	return o
}

// workers splits the Parallelism budget of one evaluation over n sub-layer
// problems: sub-layer workers, and the candidate pool each DPipe plan gets
// (DPipe.Parallelism when set explicitly). Their product never exceeds the
// budget unless DPipe was pinned above it.
func (o Options) workers(n int) (sub, dp int) {
	p := resolveParallelism(o.Parallelism)
	sub = max(1, min(p, n))
	dp = o.DPipe.Parallelism
	if dp == 0 {
		dp = max(1, p/sub)
	}
	return sub, dp
}

// resolveParallelism maps an Options.Parallelism value to a worker count.
func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// serializeProgress wraps a progress hook so concurrent emitters appear
// sequential to it; nil stays nil (and free).
func serializeProgress(fn obs.ProgressFunc) obs.ProgressFunc {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	return func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		fn(ev)
	}
}

// Evaluate models the system on the workload and architecture, selecting
// the outer tile with TileSeek (TransFusion) or the static heuristic
// (baselines).
func Evaluate(w Workload, spec arch.Spec, sys System, opts Options) (Result, error) {
	return EvaluateContext(context.Background(), w, spec, sys, opts)
}

// EvaluateContext is Evaluate under a context. Cancelling ctx aborts the
// tile search within one rollout and the schedule search within one
// candidate, returning an error matching faults.ErrCanceled. When the tile
// search fails for a reason other than the caller's cancellation — its soft
// timeout expires, its enumeration budget is exhausted, or it finds no
// feasible configuration — the evaluation degrades to the static heuristic
// tile and records Degraded / DegradedReason in the Result rather than
// failing.
func EvaluateContext(ctx context.Context, w Workload, spec arch.Spec, sys System, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if ctx.Err() != nil {
		return Result{}, faults.Canceled(ctx)
	}

	reg := obs.MetricsFrom(ctx)
	reg.Counter("pipeline.evaluations").Inc()
	lg := obs.LoggerFrom(ctx)
	if resolveParallelism(opts.Parallelism) > 1 {
		// Workers may emit progress events concurrently; callers' hooks must
		// keep seeing sequential invocations.
		opts.Progress = serializeProgress(opts.Progress)
	}
	if opts.DPipe.Progress == nil {
		opts.DPipe.Progress = opts.Progress
	}

	if !sys.UseTileSeek {
		tile, err := tiling.HeuristicTile(w, spec)
		if err != nil {
			return Result{}, err
		}
		return evaluateWithTile(ctx, w, spec, sys, tile, opts)
	}

	if opts.SkipSearch {
		// Heuristic-only degraded mode: evaluate the search-backed system on
		// the static seed tile. The result is valid — the heuristic is the
		// same configuration the search itself falls back to — just possibly
		// pessimistic, so it is reported as Degraded.
		tile, err := tiling.HeuristicTile(w, spec)
		if err != nil {
			return Result{}, err
		}
		res, err := evaluateWithTile(ctx, w, spec, sys, tile, opts)
		if err != nil {
			return Result{}, err
		}
		res.Degraded = true
		res.DegradedReason = "tile search skipped (heuristic-only degraded mode)"
		reg.Counter("pipeline.degradations").Inc()
		opts.Progress.Emit(obs.Degraded{Reason: res.DegradedReason})
		return res, nil
	}

	space := tileseek.DefaultSpace(w, spec)
	if opts.TileSeekSpace != nil {
		space = *opts.TileSeekSpace
	}
	// The search reward follows opts.TileSeekObjective; the default EDP
	// breaks latency ties on compute-bound workloads in favour of less
	// traffic, matching the paper's energy/latency reward options.
	// The search is serial, so each objective evaluation gets the whole
	// Parallelism budget (see Options.Parallelism).
	//
	// The objective runs once per rollout — hundreds of times per request —
	// so it evaluates under a detached trace context: a span per rollout
	// would blow straight through the per-trace cap and drown the request
	// tree. The search itself gets one "tileseek.search" span; only the
	// final evaluation of the winning tile (below) runs traced, so its
	// per-sub-layer schedule spans appear exactly once. The conditional
	// keeps the untraced path allocation-free.
	objCtx := ctx
	if obs.SpanFromContext(ctx) != nil {
		objCtx = obs.ContextWithSpan(ctx, nil)
	}
	objective := func(c tiling.Config) (float64, bool) {
		r, err := evaluateWithTile(objCtx, w, spec, sys, c, opts)
		if err != nil {
			return 0, false
		}
		switch opts.TileSeekObjective {
		case ObjectiveLatency:
			return r.TotalCycles, true
		case ObjectiveEnergy:
			return r.Energy.Total(), true
		default:
			return r.TotalCycles * r.Energy.Total(), true
		}
	}

	// The search is seeded with the baseline heuristic: TileSeek must never
	// do worse than the static rule it replaces. A heuristic failure is not
	// yet fatal — the search itself may still find a feasible tile.
	best, herr := tiling.HeuristicTile(w, spec)
	bestCost := math.Inf(1)
	found := false
	evals := 0
	if herr == nil {
		if cost, ok := objective(best); ok {
			bestCost, found = cost, true
			evals = 1
		} else {
			herr = fmt.Errorf("pipeline: heuristic tile %v not evaluable", best)
		}
	}

	searchCtx := ctx
	if opts.TileSeekTimeout > 0 {
		var cancel context.CancelFunc
		searchCtx, cancel = context.WithTimeout(ctx, opts.TileSeekTimeout)
		defer cancel()
	}
	opts.Progress.Emit(obs.PhaseStart{Phase: "tileseek"})
	searchStart := time.Now()
	tsOpts := tileseek.Options{
		Iterations: opts.TileSeekIterations,
		Seed:       opts.TileSeekSeed,
		Progress:   opts.Progress,
	}
	if opts.WarmHint != nil {
		// Copy so the search cannot alias the caller's hint.
		tile := opts.WarmHint.Tile
		tsOpts.Hint = &tile
		// A warm search starts from a known-good incumbent, so it spends a
		// fraction of the cold rollout budget — this is where near-miss
		// requests get an order of magnitude cheaper. Never-worse-than-hint
		// holds at any budget: the hint is consumed before the first rollout.
		if it := opts.TileSeekIterations / warmBudgetDivisor; it < tsOpts.Iterations {
			if it < warmBudgetFloor {
				it = warmBudgetFloor
			}
			tsOpts.Iterations = it
		}
	}
	search, serr := tileseek.SearchWithOptions(searchCtx, space, objective, tsOpts)
	searchDur := time.Since(searchStart)
	opts.Progress.Emit(obs.PhaseEnd{Phase: "tileseek", Duration: searchDur})
	if reg != nil {
		reg.Histogram("pipeline.tileseek_ms", nil).Observe(float64(searchDur.Microseconds()) / 1e3)
	}
	if ctx.Err() != nil {
		// The caller's own context died (possibly surfacing through serr);
		// cancellation always wins over degradation.
		return Result{}, faults.Canceled(ctx)
	}
	evals += search.Evaluated
	if search.Found && search.BestCost < bestCost {
		best, bestCost = search.Best, search.BestCost
		found = true
	}
	if !found {
		if serr == nil {
			serr = faults.Infeasiblef("pipeline: tile search found no feasible tile")
		}
		if herr != nil {
			return Result{}, fmt.Errorf("pipeline: tile search failed (%v) and heuristic fallback failed: %w", serr, herr)
		}
		// The heuristic tile exists but was not evaluable as a seed and the
		// search found nothing: nothing left to run.
		return Result{}, fmt.Errorf("pipeline: no runnable tile: %w", serr)
	}

	res, err := evaluateWithTile(ctx, w, spec, sys, best, opts)
	if err != nil {
		return Result{}, err
	}
	res.TileSearchEvals = evals
	if serr != nil {
		// The search did not complete cleanly (soft timeout, enumeration
		// budget, or an infeasible space); we are running on the heuristic
		// seed (or a partial search best). Graceful degradation, not failure.
		res.Degraded = true
		res.DegradedReason = degradeReason(serr)
		reg.Counter("pipeline.degradations").Inc()
		opts.Progress.Emit(obs.Degraded{Reason: res.DegradedReason})
		lg.Warn("pipeline: degraded evaluation",
			"system", sys.Name, "arch", spec.Name, "model", w.Model.Name,
			"seq", w.SeqLen, "reason", res.DegradedReason)
	}
	if lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("pipeline: evaluation done",
			"system", sys.Name, "arch", spec.Name, "model", w.Model.Name,
			"seq", w.SeqLen, "cycles", res.TotalCycles, "tile", res.Tile.String(),
			"evals", evals, "search_ms", float64(searchDur.Microseconds())/1e3)
	}
	return res, nil
}

// degradeReason classifies a tile-search failure for Result.DegradedReason.
func degradeReason(err error) string {
	switch {
	case errors.Is(err, faults.ErrCanceled):
		return "tile search timed out; using heuristic tile"
	case errors.Is(err, faults.ErrBudgetExhausted):
		return "tile search budget exhausted; using heuristic tile"
	case errors.Is(err, faults.ErrInfeasible):
		return "tile search found no feasible configuration; using heuristic tile"
	default:
		return "tile search failed (" + err.Error() + "); using heuristic tile"
	}
}

// layerProblem bundles a schedulable sub-layer with the metadata the
// traffic model needs.
type layerProblem struct {
	prob *dpipe.Problem
	// fullDims gives each index label's full per-instance extent (the tile
	// extent, not the per-epoch slice); used for kernel-level DRAM sizing.
	fullDims map[string]int
	// weights names operand tensors that are model parameters (amortised
	// across the batch tile).
	weights map[string]bool
	kind    LayerKind
	// sched is the scheduler this system uses for this sub-layer.
	sched Scheduler
	// instOverride, when non-zero, replaces the default per-layer instance
	// count for this sub-layer's phase (used by FLAT's row-batch attention).
	instOverride int64
}

// EvaluateWithTile models the system under an explicit outer tile.
func EvaluateWithTile(w Workload, spec arch.Spec, sys System, tile tiling.Config, opts Options) (Result, error) {
	return EvaluateWithTileContext(context.Background(), w, spec, sys, tile, opts)
}

// EvaluateWithTileContext is EvaluateWithTile under a context; cancellation
// aborts the per-sub-layer schedule search within one candidate.
func EvaluateWithTileContext(ctx context.Context, w Workload, spec arch.Spec, sys System, tile tiling.Config, opts Options) (Result, error) {
	return evaluateWithTile(ctx, w, spec, sys, tile, opts)
}

func evaluateWithTile(ctx context.Context, w Workload, spec arch.Spec, sys System, tile tiling.Config, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := tile.Validate(w); err != nil {
		return Result{}, err
	}
	if !tiling.Feasible(tile, w, spec) {
		return Result{}, faults.Infeasiblef("pipeline: tile %v infeasible on %s", tile, spec.Name)
	}
	if ctx.Err() != nil {
		return Result{}, faults.Canceled(ctx)
	}

	m := w.Model
	n := w.SeqLen
	dm := m.D
	bytes := int64(spec.BytesPerElement)
	bt := int64(tile.B)
	qInst := int64(w.Batch) * int64(n/tile.P)
	kvInst := int64(w.Batch) * tile.KVChunks(w)

	probs, err := buildProblems(w, spec, sys, tile)
	if err != nil {
		return Result{}, err
	}

	// Schedule every sub-layer problem — concurrently when the parallelism
	// budget allows (the five problems are independent), with the rest of
	// the budget going to each DPipe candidate pool (see Options.workers).
	// Results are keyed by name, and scheduling errors are reported for the
	// lexicographically smallest failing sub-layer, so outputs and errors are
	// deterministic at any worker count.
	type schedOut struct {
		res dpipe.Result
		lp  layerProblem
	}
	reg := obs.MetricsFrom(ctx)
	var schedStart time.Time
	if reg != nil {
		schedStart = time.Now()
	}
	names := make([]string, 0, len(probs))
	for name := range probs {
		names = append(names, name)
	}
	sort.Strings(names)
	workers, dpWorkers := opts.workers(len(names))
	opts.DPipe.Parallelism = dpWorkers
	schedOne := func(name string) (res dpipe.Result, err error) {
		lp := probs[name]
		// One span per sub-layer schedule. With workers > 1 these run on
		// worker goroutines; the trace serialises span mutation internally,
		// so concurrent sub-layer spans are safe and show up as overlapping
		// lanes in the exported timeline.
		sctx, sp := obs.StartSpan(ctx, "pipeline.schedule")
		if sp != nil {
			sp.SetAttr("layer", name)
			sp.SetAttr("scheduler", lp.sched.String())
			defer func() {
				sp.SetAttrInt("candidates", int64(res.Candidates))
				sp.EndErr(err)
			}()
		}
		switch lp.sched {
		case SchedSequential:
			return dpipe.Sequential(lp.prob, spec, nil)
		case SchedStatic:
			return dpipe.StaticPipelined(lp.prob, spec, dpipe.FuseMaxAssignment(lp.prob, spec))
		default:
			dopts := opts.DPipe
			if opts.WarmHint != nil {
				if lh, ok := opts.WarmHint.Layers[name]; ok && len(lh.Order) > 0 {
					dopts.WarmHints = []dpipe.Hint{{Order: lh.Order, First: lh.First}}
				}
			}
			return dpipe.PlanContext(sctx, lp.prob, spec, dopts)
		}
	}
	scheds := make(map[string]schedOut, len(probs))
	if workers > 1 {
		opts.DPipe.Progress = serializeProgress(opts.DPipe.Progress)
		results := make([]dpipe.Result, len(names))
		errs := make([]error, len(names))
		var next atomic.Int64
		var wg sync.WaitGroup
		var panicMu sync.Mutex
		var panicVal any
		work := func() {
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				results[i], errs[i] = schedOne(names[i])
			}
		}
		// The calling goroutine is one of the workers.
		wg.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
		for i, err := range errs {
			if err != nil {
				return Result{}, fmt.Errorf("pipeline: scheduling %s: %w", names[i], err)
			}
		}
		for i, name := range names {
			scheds[name] = schedOut{res: results[i], lp: probs[name]}
		}
	} else {
		for _, name := range names {
			res, err := schedOne(name)
			if err != nil {
				return Result{}, fmt.Errorf("pipeline: scheduling %s: %w", name, err)
			}
			scheds[name] = schedOut{res: res, lp: probs[name]}
		}
	}
	if reg != nil {
		reg.Histogram("pipeline.schedule_ms", nil).
			Observe(float64(time.Since(schedStart).Microseconds()) / 1e3)
	}

	// On-chip traffic per problem instance (buffer/RF/op counts). Pipelined
	// schedules retain producer-consumer operands in the register file
	// (FuseMax-style); sequential schedules round-trip the buffer.
	onChip := func(name string) perf.Traffic {
		so := scheds[name]
		var fused map[string]bool
		if so.lp.sched != SchedSequential {
			fused = make(map[string]bool, len(so.lp.prob.Ops))
			for op := range so.lp.prob.Ops {
				fused[op] = true
			}
		}
		var tr perf.Traffic
		for opName, op := range so.lp.prob.Ops {
			kind := so.res.Assignment[opName]
			tr.Add(perf.OpTraffic(op, spec, kind, fused).Scale(float64(so.lp.prob.Epochs)))
		}
		return tr
	}

	// DRAM boundary traffic per phase instance.
	kvprojDRAM := kernelDRAM(probs["kvproj"], bt, bytes)
	var phases []Phase

	addPhase := func(ph Phase) { phases = append(phases, ph) }

	// KV projection phase: common to every system (K/V are always written
	// to off-chip memory for reuse across query tiles — Figure 3).
	{
		so := scheds["kvproj"]
		ph := Phase{
			Name:          "kvproj",
			ComputeCycles: so.res.TotalCycles,
			DRAMBytes:     kvprojDRAM,
			Instances:     kvInst,
			Busy1D:        so.res.Busy1D,
			Busy2D:        so.res.Busy2D,
			OnChip:        onChip("kvproj"),
		}
		ph.ComputeByLayer[LayerQKV] = so.res.TotalCycles
		addPhase(ph)
	}

	if sys.FuseLayer {
		// One fused phase for the whole query path: QKV(Q) -> MHA -> LN ->
		// FFN with all activations on-chip. The DRAM boundary: K/V stream
		// (once per query tile), the Q-projection and FFN weights (amortised
		// across the batch tile), and the layer output write (which the next
		// layer's KV projection re-reads as its input).
		var compute, busy1, busy2 float64
		var byLayer [numLayerKinds]float64
		var chip perf.Traffic
		for _, name := range []string{"qproj", "mha", "ln", "ffn"} {
			so := scheds[name]
			compute += so.res.TotalCycles
			busy1 += so.res.Busy1D
			busy2 += so.res.Busy2D
			byLayer[so.lp.kind] += so.res.TotalCycles
			chip.Add(onChip(name))
		}
		dram := bytes * (2*int64(w.AvgVisibleKV(tile.P))*int64(dm) + // K and V streams
			(int64(dm)*int64(dm)+2*int64(dm)*int64(m.S))/bt + // WQ + FFN weights
			int64(tile.P)*int64(dm)) // layer output write
		ph := Phase{
			Name:           "layer",
			ComputeCycles:  compute,
			DRAMBytes:      dram,
			Instances:      qInst,
			Busy1D:         busy1,
			Busy2D:         busy2,
			OnChip:         chip,
			ComputeByLayer: byLayer,
		}
		addPhase(ph)
	} else {
		// Q projection (unfused): DRAM round trip for input and output.
		{
			so := scheds["qproj"]
			ph := Phase{
				Name:          "qproj",
				ComputeCycles: so.res.TotalCycles,
				DRAMBytes:     kernelDRAM(probs["qproj"], bt, bytes),
				Instances:     qInst,
				Busy1D:        so.res.Busy1D,
				Busy2D:        so.res.Busy2D,
				OnChip:        onChip("qproj"),
			}
			ph.ComputeByLayer[LayerQKV] = so.res.TotalCycles
			addPhase(ph)
		}
		// MHA: fused on-chip (FLAT/FuseMax) or kernel-level (Unfused).
		{
			so := scheds["mha"]
			mhaInst := qInst
			mhaP := tile.P
			if so.lp.instOverride > 0 {
				mhaInst = so.lp.instOverride
				mhaP = so.lp.fullDims["p"]
			}
			var dram int64
			if sys.FuseAttention {
				dram = bytes * (int64(mhaP)*int64(dm) + // Q tile read
					2*int64(w.AvgVisibleKV(mhaP))*int64(dm) + // K and V streams
					int64(mhaP)*int64(dm)) // AV write
			} else {
				dram = kernelDRAM(probs["mha"], bt, bytes)
			}
			ph := Phase{
				Name:          "mha",
				ComputeCycles: so.res.TotalCycles,
				DRAMBytes:     dram,
				Instances:     mhaInst,
				Busy1D:        so.res.Busy1D,
				Busy2D:        so.res.Busy2D,
				OnChip:        onChip("mha"),
			}
			ph.ComputeByLayer[LayerMHA] = so.res.TotalCycles
			addPhase(ph)
		}
		// Add & LayerNorm and FFN, unfused.
		for _, entry := range []struct {
			name string
			kind LayerKind
		}{{"ln", LayerNorm}, {"ffn", LayerFFN}} {
			so := scheds[entry.name]
			ph := Phase{
				Name:          entry.name,
				ComputeCycles: so.res.TotalCycles,
				DRAMBytes:     kernelDRAM(probs[entry.name], bt, bytes),
				Instances:     qInst,
				Busy1D:        so.res.Busy1D,
				Busy2D:        so.res.Busy2D,
				OnChip:        onChip(entry.name),
			}
			ph.ComputeByLayer[entry.kind] = so.res.TotalCycles
			addPhase(ph)
		}
	}

	// Roofline each phase and accumulate over layers.
	layers := int64(m.Layers)
	plans := make(map[string]LayerPlan, len(scheds))
	for name, so := range scheds {
		plans[name] = LayerPlan{
			Order:  so.res.Order,
			First:  so.res.Bipartition.FirstSorted(),
			Epochs: so.lp.prob.Epochs,
		}
	}
	res := Result{
		System:   sys.Name,
		Arch:     spec.Name,
		Workload: w,
		Tile:     tile,
		Plans:    plans,
	}
	for i := range phases {
		ph := &phases[i]
		ph.TimeCycles = perf.Roofline(ph.ComputeCycles, ph.DRAMBytes, spec)
		scale := float64(ph.Instances * layers)
		res.TotalCycles += ph.TimeCycles * scale

		// Attribute rooflined time to sub-layers proportionally to their
		// compute share of the phase.
		computeSum := 0.0
		for _, c := range ph.ComputeByLayer {
			computeSum += c
		}
		if computeSum > 0 {
			for k := 0; k < int(numLayerKinds); k++ {
				res.LayerCycles[k] += ph.TimeCycles * scale * ph.ComputeByLayer[k] / computeSum
			}
		}

		res.Busy1D += ph.Busy1D * scale
		res.Busy2D += ph.Busy2D * scale
		total := ph.OnChip.Scale(scale)
		total.DRAMBytes = float64(ph.DRAMBytes) * scale
		res.Traffic.Add(total)
	}
	res.Energy = res.Traffic.Energy(spec)
	res.Seconds = perf.SecondsFromCycles(res.TotalCycles, spec)
	res.Phases = phases
	return res, nil
}

// buildProblems constructs the five schedulable sub-layer problems for a
// system/tile combination.
func buildProblems(w Workload, spec arch.Spec, sys System, tile tiling.Config) (map[string]layerProblem, error) {
	m := w.Model
	n := w.SeqLen
	pp := tile.PPrime(spec)

	qkv := cascade.QKV()
	qCasc := &cascade.Cascade{Name: "QKV", Body: qkv.Body[:1]}
	kvCasc := &cascade.Cascade{Name: "QKV", Body: qkv.Body[1:3]}

	dEpochs := int64(ceilDiv(m.D, tile.D))
	out := make(map[string]layerProblem, 5)

	add := func(name string, c *cascade.Cascade, dims map[string]int, epochs int64, fullDims map[string]int, weights map[string]bool, kind LayerKind, sched Scheduler) error {
		prob, err := dpipe.FromCascade(c, dims, epochs)
		if err != nil {
			return err
		}
		out[name] = layerProblem{prob: prob, fullDims: fullDims, weights: weights, kind: kind, sched: sched}
		return nil
	}

	otherSched := sys.OtherScheduler
	attnSched := sys.AttentionScheduler

	if err := add("qproj", qCasc,
		map[string]int{"d": tile.D, "p": tile.P, "h": m.H, "e": m.E},
		dEpochs,
		map[string]int{"d": m.D, "p": tile.P, "h": m.H, "e": m.E},
		map[string]bool{"WQ": true},
		LayerQKV, otherSched); err != nil {
		return nil, err
	}
	if err := add("kvproj", kvCasc,
		map[string]int{"d": tile.D, "m1": tile.M1, "m0": tile.M0, "h": m.H, "e": m.E, "f": m.F},
		dEpochs,
		map[string]int{"d": m.D, "m1": tile.M1, "m0": tile.M0, "h": m.H, "e": m.E, "f": m.F},
		map[string]bool{"WK": true, "WV": true},
		LayerQKV, otherSched); err != nil {
		return nil, err
	}

	// Under causal masking every query attends to roughly half the
	// sequence on average; nVis is the effective key/value extent.
	nVis := w.AvgVisibleKV(tile.P)
	switch {
	case sys.StreamingAttention:
		mhaCascade := cascade.Attention()
		if w.Causal {
			mhaCascade = cascade.CausalAttention()
		}
		if err := add("mha", mhaCascade,
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": tile.P, "m0": tile.M0},
			int64(ceilDiv(nVis, tile.M0)),
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": tile.P, "m0": nVis},
			nil,
			LayerMHA, attnSched); err != nil {
			return nil, err
		}
	case sys.FuseAttention:
		// FLAT: full (two-pass) softmax fused on-chip. Unlike the streaming
		// cascade, the complete score rows for every query in flight must be
		// resident, so the row batch shrinks as the sequence grows:
		// p_flat = buffer/2 / N. This is FLAT's structural weakness at long
		// sequences (its 2D-array utilisation collapses), and the reason the
		// gap to streaming systems widens with N.
		pFlat := int(spec.BufferElements() / 2 / int64(w.KVLen()))
		if pFlat > tile.P {
			pFlat = tile.P
		}
		if pFlat < 1 {
			pFlat = 1
		}
		// Snap down to a divisor of the sequence so row batches tile it
		// exactly (no ragged final batch).
		if ds := tiling.Divisors(n, pFlat); len(ds) > 0 {
			pFlat = ds[len(ds)-1]
		}
		if err := add("mha", cascade.NaiveAttention(),
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": pFlat, "m0": nVis},
			1,
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": pFlat, "m0": nVis},
			nil,
			LayerMHA, attnSched); err != nil {
			return nil, err
		}
		lp := out["mha"]
		lp.instOverride = int64(w.Batch) * int64(ceilDiv(n, pFlat))
		out["mha"] = lp
	default:
		// Unfused: the same naive cascade, but every intermediate (including
		// the score matrix) round-trips DRAM, so the full query tile is kept.
		if err := add("mha", cascade.NaiveAttention(),
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": tile.P, "m0": nVis},
			1,
			map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": tile.P, "m0": nVis},
			nil,
			LayerMHA, attnSched); err != nil {
			return nil, err
		}
	}

	if err := add("ln", cascade.AddLayerNorm(m.InvHF()),
		map[string]int{"h": m.H, "f": m.F, "p": pp},
		int64(ceilDiv(tile.P, pp)),
		map[string]int{"h": m.H, "f": m.F, "p": tile.P},
		nil,
		LayerNorm, otherSched); err != nil {
		return nil, err
	}
	if err := add("ffn", cascade.FFN(m.Activation),
		map[string]int{"h": m.H, "f": m.F, "s": tile.S, "p": pp},
		int64(ceilDiv(tile.P, pp))*int64(ceilDiv(m.S, tile.S)),
		map[string]int{"h": m.H, "f": m.F, "s": m.S, "p": tile.P},
		map[string]bool{"WF1": true, "WF2": true, "BF1": true, "BF2": true},
		LayerFFN, otherSched); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelDRAM models an unfused sub-layer's off-chip traffic at kernel
// granularity: every Einsum is a separate kernel that streams each distinct
// input tensor in from DRAM (at its full per-instance extent) and its output
// back out. Weight tensors are amortised across the batch tile. This is the
// dataflow the paper's Unfused baseline describes: "intermediate results
// written to off-chip memory between phases".
func kernelDRAM(lp layerProblem, batchTile, bytesPerElem int64) int64 {
	var total int64
	size := func(labels []string) int64 {
		p := int64(1)
		for _, l := range labels {
			if s, ok := lp.fullDims[l]; ok {
				p *= int64(s)
			}
		}
		return p
	}
	for _, op := range lp.prob.Ops {
		seen := map[string]bool{}
		for _, in := range op.E.Inputs {
			if seen[in.Tensor] {
				continue
			}
			seen[in.Tensor] = true
			sz := size(in.Idx)
			if lp.weights[in.Tensor] {
				sz = sz / batchTile
				if sz == 0 {
					sz = 1
				}
			}
			total += sz
		}
		total += size(op.E.OutIdx)
	}
	return total * bytesPerElem
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// BuildProblems exposes the per-sub-layer schedulable problems ("qproj",
// "kvproj", "mha", "ln", "ffn") for a system/tile combination; the
// scheduler-ablation experiment and external tools use it to study DPipe in
// isolation.
func BuildProblems(w Workload, spec arch.Spec, sys System, tile tiling.Config) (map[string]*dpipe.Problem, error) {
	probs, err := buildProblems(w, spec, sys, tile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*dpipe.Problem, len(probs))
	for name, lp := range probs {
		out[name] = lp.prob
	}
	return out, nil
}
