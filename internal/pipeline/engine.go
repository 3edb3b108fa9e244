package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/cascade"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/model"
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
	// Parallelism is not read by the evaluation, which always runs on its
	// caller's goroutine. The experiment harness reads it as the width of
	// its grid-cell pool (experiments.Runner.Prefetch): 0 selects
	// GOMAXPROCS, 1 the serial path.
	Parallelism int
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
		o.DPipe = d.DPipe
	}
	return o
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
	ev := newEvaluator(w, spec, sys, opts)

	if !sys.UseTileSeek {
		tile, err := tiling.HeuristicTile(w, spec)
		if err != nil {
			return Result{}, err
		}
		return ev.evaluate(ctx, tile)
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
		res, err := ev.evaluate(ctx, tile)
		if err != nil {
			return Result{}, err
		}
		res.Degraded = true
		res.DegradedReason = "tile search skipped (heuristic-only degraded mode)"
		reg.Counter("pipeline.degradations").Inc()
		return res, nil
	}

	space := tileseek.DefaultSpace(w, spec)
	if opts.TileSeekSpace != nil {
		space = *opts.TileSeekSpace
	}
	// The search reward follows opts.TileSeekObjective; the default EDP
	// breaks latency ties on compute-bound workloads in favour of less
	// traffic, matching the paper's energy/latency reward options.
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
		r, err := ev.evaluate(objCtx, c)
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
	searchStart := time.Now()
	tsOpts := tileseek.Options{
		Iterations: opts.TileSeekIterations,
		Seed:       opts.TileSeekSeed,
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

	res, err := ev.evaluate(ctx, best)
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

// EvaluateWithTile models the system under an explicit outer tile.
func EvaluateWithTile(w Workload, spec arch.Spec, sys System, tile tiling.Config, opts Options) (Result, error) {
	return EvaluateWithTileContext(context.Background(), w, spec, sys, tile, opts)
}

// EvaluateWithTileContext is EvaluateWithTile under a context; cancellation
// aborts the per-sub-layer schedule search within one candidate.
func EvaluateWithTileContext(ctx context.Context, w Workload, spec arch.Spec, sys System, tile tiling.Config, opts Options) (Result, error) {
	return newEvaluator(w, spec, sys, opts).evaluate(ctx, tile)
}

// evaluator evaluates tiles of one workload on one architecture and system
// under fixed options. EvaluateContext builds one per request and runs every
// tile the search proposes through it, so the memo context and the warm-hint
// ids (see memoKey) are interned once per request, not once per tile.
type evaluator struct {
	w    Workload
	spec arch.Spec
	sys  System
	opts Options
	// memo is false when the caller passes raw DPipe hints
	// (Options.DPipe.WarmHints), which no memo key carries.
	memo bool
	// ctxID interns the memoContext; hints[l] interns sub-layer l's warm
	// hint (0: none).
	ctxID uint64
	hints [numSubLayers]uint64
}

func newEvaluator(w Workload, spec arch.Spec, sys System, opts Options) *evaluator {
	opts = opts.withDefaults()
	ev := &evaluator{w: w, spec: spec, sys: sys, opts: opts, memo: len(opts.DPipe.WarmHints) == 0}
	if !ev.memo {
		return ev
	}
	d := opts.DPipe
	ev.ctxID = internContext(memoContext{
		spec: spec, model: w.Model, sys: sys,
		caps: [4]int{d.MaxBipartitions, d.MaxOrdersPerPartition, d.ExplicitEpochs, d.MaxEnumeration},
	})
	for l := range ev.hints {
		if h, ok := ev.hint(subLayer(l)); ok {
			ev.hints[l] = internHint(h)
		}
	}
	return ev
}

func (ev *evaluator) evaluate(ctx context.Context, tile tiling.Config) (Result, error) {
	w, spec, sys := ev.w, ev.spec, ev.sys
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
	dm := m.D
	bytes := int64(spec.BytesPerElement)
	bt := int64(tile.B)
	qInst := int64(w.Batch) * int64(w.SeqLen/tile.P)
	kvInst := int64(w.Batch) * tile.KVChunks(w)

	// Schedule every sub-layer problem in name order, so a scheduling error
	// always names the lexicographically smallest failing sub-layer.
	reg := obs.MetricsFrom(ctx)
	var schedStart time.Time
	if reg != nil {
		schedStart = time.Now()
	}
	descs := ev.describe(tile)
	var scheds [numSubLayers]schedule
	var names [numSubLayers][]string
	for l := range scheds {
		s, n, err := ev.schedule(ctx, subLayer(l), descs[l])
		if err != nil {
			return Result{}, fmt.Errorf("pipeline: scheduling %s: %w", subLayerNames[l], err)
		}
		scheds[l], names[l] = s, n
	}
	if reg != nil {
		reg.Histogram("pipeline.schedule_ms", nil).
			Observe(float64(time.Since(schedStart).Microseconds()) / 1e3)
	}

	var phases []Phase
	addPhase := func(ph Phase) { phases = append(phases, ph) }

	// KV projection phase: common to every system (K/V are always written
	// to off-chip memory for reuse across query tiles — Figure 3).
	{
		so := &scheds[subKVProj]
		ph := Phase{
			Name:          "kvproj",
			ComputeCycles: so.cycles,
			DRAMBytes:     so.kernelDRAM(bt, bytes),
			Instances:     kvInst,
			Busy1D:        so.busy1D,
			Busy2D:        so.busy2D,
			OnChip:        so.onChip,
		}
		ph.ComputeByLayer[LayerQKV] = so.cycles
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
		for _, l := range []subLayer{subQProj, subMHA, subLN, subFFN} {
			so := &scheds[l]
			compute += so.cycles
			busy1 += so.busy1D
			busy2 += so.busy2D
			byLayer[subLayerKinds[l]] += so.cycles
			chip.Add(so.onChip)
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
			so := &scheds[subQProj]
			ph := Phase{
				Name:          "qproj",
				ComputeCycles: so.cycles,
				DRAMBytes:     so.kernelDRAM(bt, bytes),
				Instances:     qInst,
				Busy1D:        so.busy1D,
				Busy2D:        so.busy2D,
				OnChip:        so.onChip,
			}
			ph.ComputeByLayer[LayerQKV] = so.cycles
			addPhase(ph)
		}
		// MHA: fused on-chip (FLAT/FuseMax) or kernel-level (Unfused).
		{
			so := &scheds[subMHA]
			mhaInst := qInst
			mhaP := tile.P
			if d := descs[subMHA]; d.instOverride > 0 {
				mhaInst = d.instOverride
				mhaP = d.reads[0]
			}
			var dram int64
			if sys.FuseAttention {
				dram = bytes * (int64(mhaP)*int64(dm) + // Q tile read
					2*int64(w.AvgVisibleKV(mhaP))*int64(dm) + // K and V streams
					int64(mhaP)*int64(dm)) // AV write
			} else {
				dram = so.kernelDRAM(bt, bytes)
			}
			ph := Phase{
				Name:          "mha",
				ComputeCycles: so.cycles,
				DRAMBytes:     dram,
				Instances:     mhaInst,
				Busy1D:        so.busy1D,
				Busy2D:        so.busy2D,
				OnChip:        so.onChip,
			}
			ph.ComputeByLayer[LayerMHA] = so.cycles
			addPhase(ph)
		}
		// Add & LayerNorm and FFN, unfused.
		for _, l := range []subLayer{subLN, subFFN} {
			so := &scheds[l]
			ph := Phase{
				Name:          subLayerNames[l],
				ComputeCycles: so.cycles,
				DRAMBytes:     so.kernelDRAM(bt, bytes),
				Instances:     qInst,
				Busy1D:        so.busy1D,
				Busy2D:        so.busy2D,
				OnChip:        so.onChip,
			}
			ph.ComputeByLayer[subLayerKinds[l]] = so.cycles
			addPhase(ph)
		}
	}

	// Roofline each phase and accumulate over layers.
	layers := int64(m.Layers)
	plans := make(map[string]LayerPlan, numSubLayers)
	for l := range scheds {
		plans[subLayerNames[l]] = scheds[l].plan(names[l])
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

// subLayer indexes the five sub-layer problems of a layer in name order.
type subLayer uint8

const (
	subFFN subLayer = iota
	subKVProj
	subLN
	subMHA
	subQProj
	numSubLayers
)

// subLayerNames name the sub-layer problems, as Result.Plans and
// WarmHint.Layers key them.
var subLayerNames = [numSubLayers]string{"ffn", "kvproj", "ln", "mha", "qproj"}

// subLayerKinds attribute each sub-layer's compute to a LayerKind.
var subLayerKinds = [numSubLayers]LayerKind{LayerFFN, LayerQKV, LayerNorm, LayerMHA, LayerQKV}

// subLayerWeights name each sub-layer's operand tensors that are model
// parameters (amortised across the batch tile).
var subLayerWeights = [numSubLayers]map[string]bool{
	subFFN:    {"WF1": true, "WF2": true, "BF1": true, "BF2": true},
	subKVProj: {"WK": true, "WV": true},
	subQProj:  {"WQ": true},
}

// scheduler is the scheduler this system uses for sub-layer l.
func (ev *evaluator) scheduler(l subLayer) Scheduler {
	if l == subMHA {
		return ev.sys.AttentionScheduler
	}
	return ev.sys.OtherScheduler
}

// hint is sub-layer l's DPipe warm hint, when the options carry one for a
// DPipe-scheduled sub-layer.
func (ev *evaluator) hint(l subLayer) (dpipe.Hint, bool) {
	if ev.opts.WarmHint == nil || ev.scheduler(l) != SchedDPipe {
		return dpipe.Hint{}, false
	}
	lh, ok := ev.opts.WarmHint.Layers[subLayerNames[l]]
	if !ok || len(lh.Order) == 0 {
		return dpipe.Hint{}, false
	}
	return dpipe.Hint{Order: lh.Order, First: lh.First}, true
}

// layerDesc describes one sub-layer problem from the tile without building
// it. reads are the tile-derived extents the problem is built from (see
// evaluator.problem), which with the memo context determine its schedule:
//
//	qproj   D, P
//	kvproj  D, M1, M0
//	mha     P (FLAT: its row batch pFlat), M0 (streaming only), the visible KV length
//	ln      P', P
//	ffn     S, P', P
//
// B appears in none of them: it enters only the DRAM amortisation of the
// weights, which the phase composition applies to the schedule.
type layerDesc struct {
	reads [3]int
	// causal selects the masked streaming-attention cascade; it is set only
	// on a streaming system's mha, the one problem masking changes beyond
	// the visible KV length.
	causal bool
	// instOverride, when non-zero, replaces the default per-layer instance
	// count for this sub-layer's phase (FLAT's row-batch attention).
	instOverride int64
}

// describe computes the five sub-layer descriptions of a tile.
func (ev *evaluator) describe(tile tiling.Config) [numSubLayers]layerDesc {
	w := ev.w
	pp := tile.PPrime(ev.spec)
	// Under causal masking every query attends to roughly half the
	// sequence on average; nVis is the effective key/value extent.
	nVis := w.AvgVisibleKV(tile.P)
	var d [numSubLayers]layerDesc
	d[subQProj].reads = [3]int{tile.D, tile.P}
	d[subKVProj].reads = [3]int{tile.D, tile.M1, tile.M0}
	d[subLN].reads = [3]int{pp, tile.P}
	d[subFFN].reads = [3]int{tile.S, pp, tile.P}
	switch {
	case ev.sys.StreamingAttention:
		d[subMHA] = layerDesc{reads: [3]int{tile.P, tile.M0, nVis}, causal: w.Causal}
	case ev.sys.FuseAttention:
		// FLAT: full (two-pass) softmax fused on-chip. Unlike the streaming
		// cascade, the complete score rows for every query in flight must be
		// resident, so the row batch shrinks as the sequence grows:
		// p_flat = buffer/2 / N. This is FLAT's structural weakness at long
		// sequences (its 2D-array utilisation collapses), and the reason the
		// gap to streaming systems widens with N.
		pFlat := int(ev.spec.BufferElements() / 2 / int64(w.KVLen()))
		if pFlat > tile.P {
			pFlat = tile.P
		}
		if pFlat < 1 {
			pFlat = 1
		}
		// Snap down to a divisor of the sequence so row batches tile it
		// exactly (no ragged final batch).
		if ds := tiling.Divisors(w.SeqLen, pFlat); len(ds) > 0 {
			pFlat = ds[len(ds)-1]
		}
		d[subMHA] = layerDesc{
			reads:        [3]int{pFlat, 0, nVis},
			instOverride: int64(w.Batch) * int64(ceilDiv(w.SeqLen, pFlat)),
		}
	default:
		// Unfused: the same naive cascade, but every intermediate (including
		// the score matrix) round-trips DRAM, so the full query tile is kept.
		d[subMHA].reads = [3]int{tile.P, 0, nVis}
	}
	return d
}

// layerProblem bundles a schedulable sub-layer with the metadata the
// traffic model needs.
type layerProblem struct {
	prob *dpipe.Problem
	// fullDims gives each index label's full per-instance extent (the tile
	// extent, not the per-epoch slice); used for kernel-level DRAM sizing.
	fullDims map[string]int
}

// problem builds sub-layer l's schedulable problem from its description.
// Beyond it, it reads only the model and the system's dataflow, both in the
// memo context, so a memo key determines the problem it stands for.
func (ev *evaluator) problem(l subLayer, desc layerDesc) (layerProblem, error) {
	m := ev.w.Model
	r := desc.reads
	var c *cascade.Cascade
	var dims, full map[string]int
	var epochs int64
	switch l {
	case subQProj:
		d, p := r[0], r[1]
		c = &cascade.Cascade{Name: "QKV", Body: cascade.QKV().Body[:1]}
		dims = map[string]int{"d": d, "p": p, "h": m.H, "e": m.E}
		full = map[string]int{"d": m.D, "p": p, "h": m.H, "e": m.E}
		epochs = int64(ceilDiv(m.D, d))
	case subKVProj:
		d, m1, m0 := r[0], r[1], r[2]
		c = &cascade.Cascade{Name: "QKV", Body: cascade.QKV().Body[1:3]}
		dims = map[string]int{"d": d, "m1": m1, "m0": m0, "h": m.H, "e": m.E, "f": m.F}
		full = map[string]int{"d": m.D, "m1": m1, "m0": m0, "h": m.H, "e": m.E, "f": m.F}
		epochs = int64(ceilDiv(m.D, d))
	case subMHA:
		p, m0, nVis := r[0], r[1], r[2]
		if ev.sys.StreamingAttention {
			c = cascade.Attention()
			if desc.causal {
				c = cascade.CausalAttention()
			}
			dims = map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": p, "m0": m0}
			full = map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": p, "m0": nVis}
			epochs = int64(ceilDiv(nVis, m0))
		} else {
			// The naive cascade over the whole visible KV length in one
			// epoch, on FLAT's row batch or Unfused's query tile.
			c = cascade.NaiveAttention()
			dims = map[string]int{"h": m.H, "e": m.E, "f": m.F, "p": p, "m0": nVis}
			full = dims
			epochs = 1
		}
	case subLN:
		pp, p := r[0], r[1]
		c = cascade.AddLayerNorm(m.InvHF())
		dims = map[string]int{"h": m.H, "f": m.F, "p": pp}
		full = map[string]int{"h": m.H, "f": m.F, "p": p}
		epochs = int64(ceilDiv(p, pp))
	case subFFN:
		s, pp, p := r[0], r[1], r[2]
		c = cascade.FFN(m.Activation)
		dims = map[string]int{"h": m.H, "f": m.F, "s": s, "p": pp}
		full = map[string]int{"h": m.H, "f": m.F, "s": m.S, "p": p}
		epochs = int64(ceilDiv(p, pp)) * int64(ceilDiv(m.S, s))
	}
	prob, err := dpipe.FromCascade(c, dims, epochs)
	if err != nil {
		return layerProblem{}, err
	}
	return layerProblem{prob: prob, fullDims: full}, nil
}

// schedule returns sub-layer l's schedule and its op names, from the memo
// when a fresh plan of the same key left it there (see scheduleMemo). Each
// call opens one "pipeline.schedule" span, annotated memo=hit, miss or off.
func (ev *evaluator) schedule(ctx context.Context, l subLayer, d layerDesc) (s schedule, names []string, err error) {
	sched := ev.scheduler(l)
	// Chaos runs strike fault sites inside the plans, so they bypass the
	// memo, as they bypass DPipe's fronts.
	memo := ev.memo && chaos.From(ctx) == nil
	key := memoKey{ctx: ev.ctxID, hint: ev.hints[l], reads: d.reads, layer: l, causal: d.causal}
	sctx, sp := obs.StartSpan(ctx, "pipeline.schedule")
	if sp != nil {
		sp.SetAttr("layer", subLayerNames[l])
		sp.SetAttr("scheduler", sched.String())
		defer func() {
			sp.SetAttrInt("candidates", int64(s.candidates))
			sp.EndErr(err)
		}()
	}
	reg := obs.MetricsFrom(ctx)
	if memo {
		if hit, hitNames, ok := lookupSchedule(key); ok {
			reg.Counter("pipeline.memo_hits").Inc()
			sp.SetAttr("memo", "hit")
			return hit, hitNames, nil
		}
		reg.Counter("pipeline.memo_misses").Inc()
		sp.SetAttr("memo", "miss")
	} else {
		sp.SetAttr("memo", "off")
	}
	s, names, err = ev.plan(sctx, l, sched, d)
	if err == nil && memo {
		storeSchedule(key, s, names)
	}
	return s, names, err
}

// plan builds sub-layer l's problem and schedules it.
func (ev *evaluator) plan(ctx context.Context, l subLayer, sched Scheduler, d layerDesc) (schedule, []string, error) {
	lp, err := ev.problem(l, d)
	if err != nil {
		return schedule{}, nil, err
	}
	var res dpipe.Result
	switch sched {
	case SchedSequential:
		res, err = dpipe.Sequential(lp.prob, ev.spec, nil)
	case SchedStatic:
		res, err = dpipe.StaticPipelined(lp.prob, ev.spec, dpipe.FuseMaxAssignment(lp.prob, ev.spec))
	default:
		dopts := ev.opts.DPipe
		if h, ok := ev.hint(l); ok {
			dopts.WarmHints = []dpipe.Hint{h}
		}
		res, err = dpipe.PlanContext(ctx, lp.prob, ev.spec, dopts)
	}
	if err != nil {
		return schedule{}, nil, err
	}
	return newSchedule(lp, subLayerWeights[l], sched, res, ev.spec)
}

// Bounds of a schedule's fixed-size fields: the largest sub-layer cascade
// (streaming attention) has 12 ops and the FFN reads 4 weight operands.
const (
	maxScheduleOps    = 16
	maxWeightOperands = 4
)

// schedule is what the phase composition and Result.Plans read of one
// sub-layer's schedule. It is the memo's value, so it holds fixed-size
// fields only: no problem, maps or strings.
type schedule struct {
	cycles, busy1D, busy2D float64
	// onChip is one instance's on-chip traffic over all its epochs.
	onChip perf.Traffic
	epochs int64
	// dramElems and weightElems split kernelDRAM's element count: every
	// activation operand and output, and each weight operand's full size
	// before its amortisation over the batch tile (0: unused slot).
	dramElems   int64
	weightElems [maxWeightOperands]int64
	// order is the per-epoch op order as indices into the sub-layer's sorted
	// op names; first is the bipartition's first subgraph as a bitmask over
	// the same indices.
	order      [maxScheduleOps]uint8
	nOps       uint8
	first      uint16
	candidates int32
}

// newSchedule condenses a scheduled problem into a schedule and returns it
// with the problem's sorted op names.
func newSchedule(lp layerProblem, weights map[string]bool, sched Scheduler, res dpipe.Result, spec arch.Spec) (schedule, []string, error) {
	p := lp.prob
	names := make([]string, 0, len(p.Ops))
	for n := range p.Ops {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > maxScheduleOps {
		return schedule{}, nil, fmt.Errorf("pipeline: problem %s has %d ops, more than a schedule holds (%d)", p.Name, len(names), maxScheduleOps)
	}
	index := func(name string) int {
		i, _ := slices.BinarySearch(names, name)
		return i
	}
	s := schedule{
		cycles:     res.TotalCycles,
		busy1D:     res.Busy1D,
		busy2D:     res.Busy2D,
		epochs:     p.Epochs,
		nOps:       uint8(len(res.Order)),
		candidates: int32(res.Candidates),
	}
	for i, n := range res.Order {
		s.order[i] = uint8(index(n))
	}
	for n, in := range res.Bipartition.First {
		if in {
			s.first |= 1 << index(n)
		}
	}

	// On-chip traffic (buffer/RF/op counts). Pipelined schedules retain
	// producer-consumer operands in the register file (FuseMax-style);
	// sequential schedules round-trip the buffer.
	var fused map[string]bool
	if sched != SchedSequential {
		fused = make(map[string]bool, len(names))
		for _, n := range names {
			fused[n] = true
		}
	}
	for _, n := range names {
		s.onChip.Add(perf.OpTraffic(p.Ops[n], spec, res.Assignment[n], fused).Scale(float64(p.Epochs)))
	}

	// kernelDRAM's elements: every Einsum is a separate kernel that streams
	// each distinct input tensor in at its full per-instance extent and its
	// output back out.
	size := func(labels []string) int64 {
		n := int64(1)
		for _, l := range labels {
			if e, ok := lp.fullDims[l]; ok {
				n *= int64(e)
			}
		}
		return n
	}
	nw := 0
	for _, n := range names {
		e := p.Ops[n].E
		for i, in := range e.Inputs {
			if slices.ContainsFunc(e.Inputs[:i], func(a einsum.Arg) bool { return a.Tensor == in.Tensor }) {
				continue
			}
			if !weights[in.Tensor] {
				s.dramElems += size(in.Idx)
				continue
			}
			if nw == maxWeightOperands {
				return schedule{}, nil, fmt.Errorf("pipeline: problem %s reads more than %d weight operands", p.Name, maxWeightOperands)
			}
			s.weightElems[nw] = size(in.Idx)
			nw++
		}
		s.dramElems += size(e.OutIdx)
	}
	return s, names, nil
}

// kernelDRAM models an unfused sub-layer's off-chip traffic at kernel
// granularity: every Einsum is a separate kernel that streams each distinct
// input tensor in from DRAM (at its full per-instance extent) and its output
// back out. Weight tensors are amortised across the batch tile. This is the
// dataflow the paper's Unfused baseline describes: "intermediate results
// written to off-chip memory between phases".
func (s *schedule) kernelDRAM(batchTile, bytesPerElem int64) int64 {
	total := s.dramElems
	for _, w := range s.weightElems {
		if w > 0 {
			total += max(w/batchTile, 1)
		}
	}
	return total * bytesPerElem
}

// plan materialises the schedule as a LayerPlan with fresh slices, so a
// caller that edits a Result never reaches the memo; First is empty, not
// nil, when the schedule is unpartitioned.
func (s *schedule) plan(names []string) LayerPlan {
	p := LayerPlan{
		Order:  make([]string, s.nOps),
		First:  make([]string, 0, bits.OnesCount16(s.first)),
		Epochs: s.epochs,
	}
	for i, op := range s.order[:s.nOps] {
		p.Order[i] = names[op]
	}
	for op, n := range names {
		if s.first&(1<<op) != 0 {
			p.First = append(p.First, n)
		}
	}
	return p
}

// memoKey identifies a sub-layer schedule: ctx interns what it depends on
// beyond the tile (see memoContext), reads and causal are the layerDesc its
// problem is built from, and hint interns the warm hint of a
// DPipe-scheduled sub-layer (0: none).
type memoKey struct {
	ctx, hint uint64
	reads     [3]int
	layer     subLayer
	causal    bool
}

// namesKey is the part of a memo key that selects the problem's cascade,
// and so the op names its schedules index.
func (k memoKey) namesKey() memoKey {
	k.reads, k.hint = [3]int{}, 0
	return k
}

// memoContext is what a sub-layer schedule depends on beyond its
// description: the architecture, the model shape, the system's dataflow and
// the DPipe caps.
type memoContext struct {
	spec  arch.Spec
	model model.Config
	sys   System
	caps  [4]int
}

// Bounds of the schedule memo. A cold search over 240 distinct request specs
// schedules about 2,900 distinct sub-layer problems, and an entry costs
// about 250 bytes, so a full memo holds about a megabyte. Past
// memoInternSize interned contexts or hints, the memo starts over.
const (
	scheduleMemoSize = 4096
	memoInternSize   = 1024
)

// scheduleMemo is the process-wide memo of sub-layer schedules. TileSeek
// evaluates every tile it proposes through five sub-layer schedules, and
// most tiles share most of them with an earlier tile or request: a
// sub-layer reads only a few tile fields (see layerDesc). A hit skips
// building, validating, compiling and planning the problem. Entries are
// stored in a ring and the oldest is evicted once it is full; errors are
// never stored. Interned ids are never reused, so an evaluator that
// interned its ids before a reset cannot read another context's entries.
var scheduleMemo struct {
	sync.Mutex
	index    map[memoKey]int // ring slot
	ring     []memoEntry
	next     int                  // the oldest slot once the ring is full
	names    map[memoKey][]string // by namesKey
	contexts map[memoContext]uint64
	hints    map[string]uint64
	lastID   uint64
}

type memoEntry struct {
	key   memoKey
	sched schedule
}

// ResetSchedules empties the schedule memo and DPipe's front cache, so the
// next evaluation of every tile plans its sub-layers as a fresh process
// would. Tests and benchmarks call it to measure or count uncached work.
func ResetSchedules() {
	scheduleMemo.Lock()
	resetMemoLocked()
	scheduleMemo.Unlock()
	dpipe.ResetFronts()
}

func resetMemoLocked() {
	m := &scheduleMemo
	m.index, m.ring, m.next = nil, nil, 0
	m.names, m.contexts, m.hints = nil, nil, nil
}

// internID returns key's id in ids, assigning the next one when key is new;
// it starts the memo over first when the table is full.
func internID[K comparable](ids *map[K]uint64, key K) uint64 {
	m := &scheduleMemo
	m.Lock()
	defer m.Unlock()
	if id, ok := (*ids)[key]; ok {
		return id
	}
	if len(*ids) >= memoInternSize {
		resetMemoLocked()
	}
	if *ids == nil {
		*ids = make(map[K]uint64)
	}
	m.lastID++
	(*ids)[key] = m.lastID
	return m.lastID
}

func internContext(c memoContext) uint64 { return internID(&scheduleMemo.contexts, c) }

func internHint(h dpipe.Hint) uint64 {
	return internID(&scheduleMemo.hints, strings.Join(h.Order, "\x1f")+"\x1e"+strings.Join(h.First, "\x1f"))
}

func lookupSchedule(key memoKey) (schedule, []string, bool) {
	m := &scheduleMemo
	m.Lock()
	defer m.Unlock()
	i, ok := m.index[key]
	if !ok {
		return schedule{}, nil, false
	}
	names, ok := m.names[key.namesKey()]
	return m.ring[i].sched, names, ok
}

func storeSchedule(key memoKey, s schedule, names []string) {
	m := &scheduleMemo
	m.Lock()
	defer m.Unlock()
	if m.index == nil {
		m.index = make(map[memoKey]int)
		m.names = make(map[memoKey][]string)
	}
	nk := key.namesKey()
	if _, ok := m.names[nk]; !ok {
		m.names[nk] = names
	}
	if i, ok := m.index[key]; ok {
		m.ring[i].sched = s
		return
	}
	if len(m.ring) < scheduleMemoSize {
		m.index[key] = len(m.ring)
		m.ring = append(m.ring, memoEntry{key, s})
		return
	}
	delete(m.index, m.ring[m.next].key)
	m.ring[m.next] = memoEntry{key, s}
	m.index[key] = m.next
	m.next = (m.next + 1) % scheduleMemoSize
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
	ev := &evaluator{w: w, spec: spec, sys: sys}
	descs := ev.describe(tile)
	out := make(map[string]*dpipe.Problem, numSubLayers)
	for l, d := range descs {
		lp, err := ev.problem(subLayer(l), d)
		if err != nil {
			return nil, err
		}
		out[subLayerNames[l]] = lp.prob
	}
	return out, nil
}
