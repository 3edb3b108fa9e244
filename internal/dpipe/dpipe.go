// Package dpipe implements DPipe, the paper's DAG-based Einsum pipelining
// scheduler (§4). Given the operation-level DAG of a fused layer's Einsum
// Cascade, DPipe:
//
//  1. enumerates valid bipartitions of the DAG under the four constraints of
//     §4.1 (source/sink alignment, weak connectivity, dependency
//     completeness, reachability);
//  2. connects each bipartition's subgraphs with a virtual root node and
//     enumerates topological orderings of the result — each ordering is a
//     candidate interleaving of the two pipeline stages;
//  3. evaluates each candidate with the dynamic-programming list scheduler
//     of Eqs. 43–46, which assigns every Einsum inner tile to the 1D or 2D
//     PE array so as to minimise its completion time subject to dependency
//     and array-occupancy constraints, across epochs of inner tiles;
//  4. returns the schedule with the minimum extrapolated makespan.
//
// Epochs: a layer executes many identical inner tiles (e.g. the M1 loop of
// streaming attention). The scheduler models a small number of epochs
// explicitly — enough to reach the pipeline's steady state — and
// extrapolates the per-epoch steady-state increment to the full epoch
// count, so scheduling cost is independent of sequence length.
package dpipe

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// StateEdge is a cross-epoch dependency: the op named From in epoch k-1
// must finish before the op named To in epoch k starts (the streaming-
// softmax recurrence).
type StateEdge struct {
	From string
	To   string
}

// Problem is one schedulable fused layer: the per-epoch operations, their
// intra-epoch dependency DAG, cross-epoch recurrence edges, and the number
// of epochs (inner tiles) to execute.
type Problem struct {
	// Name identifies the layer (for traces).
	Name string
	// Ops maps Einsum name to its per-epoch OpSpec.
	Ops map[string]perf.OpSpec
	// Deps is the intra-epoch dependency DAG over Einsum names.
	Deps *graph.DAG
	// StateEdges are the cross-epoch recurrence dependencies.
	StateEdges []StateEdge
	// Epochs is the number of inner-tile epochs (>= 1).
	Epochs int64
}

// Validate checks the problem's internal consistency.
func (p *Problem) Validate() error {
	if p.Epochs < 1 {
		return fmt.Errorf("dpipe: problem %s has %d epochs", p.Name, p.Epochs)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("dpipe: problem %s has no ops", p.Name)
	}
	for _, n := range p.Deps.Nodes() {
		if _, ok := p.Ops[n]; !ok {
			return fmt.Errorf("dpipe: problem %s: DAG node %q has no OpSpec", p.Name, n)
		}
	}
	for name, op := range p.Ops {
		if !p.Deps.HasNode(name) {
			return fmt.Errorf("dpipe: problem %s: op %q missing from DAG", p.Name, name)
		}
		if err := op.Validate(); err != nil {
			return fmt.Errorf("dpipe: problem %s: op %q: %w", p.Name, name, err)
		}
	}
	for _, se := range p.StateEdges {
		if !p.Deps.HasNode(se.From) || !p.Deps.HasNode(se.To) {
			return fmt.Errorf("dpipe: problem %s: state edge %s->%s references unknown op", p.Name, se.From, se.To)
		}
	}
	if !p.Deps.IsAcyclic() {
		return fmt.Errorf("dpipe: problem %s: dependency graph has a cycle", p.Name)
	}
	return nil
}

// SerialLoadCycles returns the total cycles if every op ran serially on its
// best array with no overlap — an upper bound used in tests and as a
// degenerate fallback.
func (p *Problem) SerialLoadCycles(spec arch.Spec) float64 {
	total := 0.0
	for _, op := range p.Ops {
		_, c := op.BestArray(spec)
		total += c
	}
	return total * float64(p.Epochs)
}

// Result is a completed schedule.
type Result struct {
	// TotalCycles is the extrapolated makespan over all epochs.
	TotalCycles float64
	// Busy1D and Busy2D are the total busy cycles per array over all epochs.
	Busy1D float64
	Busy2D float64
	// Order is the per-epoch topological order the winning schedule used.
	Order []string
	// Assignment is the steady-state array assignment per op.
	Assignment map[string]perf.ArrayKind
	// Bipartition is the winning DAG split ("" sides when the DAG admitted
	// no valid bipartition and the canonical order was used).
	Bipartition graph.Bipartition
	// Candidates is the number of (bipartition, order) schedules the plan
	// chose among.
	Candidates int
}

// Utilization1D returns the 1D array's busy fraction of the makespan.
func (r Result) Utilization1D() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.Busy1D / r.TotalCycles
}

// Utilization2D returns the 2D array's busy fraction of the makespan.
func (r Result) Utilization2D() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.Busy2D / r.TotalCycles
}

// Options bound the schedule search.
type Options struct {
	// MaxBipartitions caps the number of DAG bipartitions explored.
	MaxBipartitions int
	// MaxOrdersPerPartition caps the topological orderings tried per
	// bipartition.
	MaxOrdersPerPartition int
	// ExplicitEpochs is the number of epochs scheduled exactly before
	// steady-state extrapolation (>= 2 for a meaningful delta).
	ExplicitEpochs int
	// MaxEnumeration caps the candidate subsets *examined* during
	// bipartition enumeration (the scan is exponential in DAG size before
	// validity filtering). Exceeding the cap aborts the plan with an error
	// matching faults.ErrBudgetExhausted instead of scanning unbounded.
	// Zero takes the default; negative means unlimited.
	MaxEnumeration int
	// Deprecated: ignored; evaluation is serial.
	Parallelism int
	// Progress, when non-nil, receives an obs.EnumerationProgress event
	// after the bipartition/ordering enumeration of each plan. Leave nil to
	// pay nothing.
	Progress obs.ProgressFunc
	// WarmHints, when non-empty, are previously winning (order, first-set)
	// candidates — typically from the stored plan for the nearest sequence
	// length. A valid hint is one more candidate: one the enumeration lacks
	// is appended to the candidate list and swept like any other, so the
	// plan is never worse than its best hint, and when the enumeration holds
	// every hint the plan is a cold plan, Result and DP cells alike. Hints
	// that do not match the problem's DAG are ignored.
	WarmHints []Hint
}

// Hint is one warm-start candidate for Options.WarmHints: a previously
// winning per-epoch order and the first-subgraph of its bipartition (empty
// First = the unpartitioned schedule).
type Hint struct {
	Order []string
	First []string
}

// bipartition validates a hint against the problem and rebuilds its
// Bipartition. A hint is valid when Order is a permutation of the DAG's
// nodes and First is a strict, duplicate-free subset of them; anything else
// (a hint from a structurally different layer) reports false and is
// ignored. Dependency violations need no checking here: an order that
// breaks the DAG earns an infinite makespan from the DP and never wins.
func (h Hint) bipartition(p *Problem) (graph.Bipartition, bool) {
	if len(h.Order) != len(p.Deps.Nodes()) {
		return graph.Bipartition{}, false
	}
	seen := make(map[string]bool, len(h.Order))
	for _, n := range h.Order {
		if !p.Deps.HasNode(n) || seen[n] {
			return graph.Bipartition{}, false
		}
		seen[n] = true
	}
	if len(h.First) == 0 {
		return graph.Bipartition{}, true
	}
	part := graph.Bipartition{
		First:  make(map[string]bool, len(h.First)),
		Second: make(map[string]bool, len(h.Order)-len(h.First)),
	}
	for _, n := range h.First {
		if !seen[n] || part.First[n] {
			return graph.Bipartition{}, false
		}
		part.First[n] = true
	}
	for _, n := range h.Order {
		if !part.First[n] {
			part.Second[n] = true
		}
	}
	if len(part.Second) == 0 {
		return graph.Bipartition{}, false // both sides of a bipartition are non-empty
	}
	return part, true
}

// DefaultOptions are the bounds used throughout the evaluation.
func DefaultOptions() Options {
	return Options{MaxBipartitions: 64, MaxOrdersPerPartition: 12, ExplicitEpochs: 12, MaxEnumeration: 1 << 20}
}

// Plan searches bipartitions and orderings and returns the best pipelined
// schedule for the problem on the given architecture.
func Plan(p *Problem, spec arch.Spec, opts Options) (Result, error) {
	return PlanContext(context.Background(), p, spec, opts)
}

// PlanContext is Plan under a context: cancellation is honoured between
// enumeration strides and between candidate schedule evaluations, returning
// an error matching faults.ErrCanceled; the enumeration budget
// (Options.MaxEnumeration) returns faults.ErrBudgetExhausted.
//
// Observability: a logger attached to ctx (obs.WithLogger) gets a debug line
// per plan; a registry attached to ctx (obs.WithMetrics) accumulates
// dpipe.plans, dpipe.enumerated, dpipe.bipartitions, dpipe.candidates,
// dpipe.dp_cells, dpipe.front_hits, dpipe.front_misses and the
// dpipe.plan_ms histogram. Every plan that reaches candidate evaluation
// is one front hit or miss, except under a chaos injector. A request span
// attached to ctx (obs.ContextWithSpan) gains one "dpipe.plan" child
// annotated with the candidate count.
//
// Front cache: a plan's DP sweeps depend on the DAG shape, the cycles
// table, the state edges and the explicit window, not on the epoch count,
// which enters only through the extrapolation. Each plan leaves, under that
// key, the candidates that can win at some epoch count; a later plan under
// the key, at any epoch count, reduces over them and sweeps only the winner.
// Its Result is bit-identical to a plan that sweeps everything. Warm plans
// read and fill fronts like any other; a hint the enumeration lacks is
// swept on every plan.
func PlanContext(ctx context.Context, p *Problem, spec arch.Spec, opts Options) (Result, error) {
	ctx, sp := obs.StartSpan(ctx, "dpipe.plan")
	res, err := planContext(ctx, p, spec, opts)
	if sp != nil {
		sp.SetAttrInt("candidates", int64(res.Candidates))
		if len(opts.WarmHints) > 0 {
			sp.SetAttrBool("warm", true)
		}
		sp.EndErr(err)
	}
	return res, err
}

// planContext is PlanContext's body; see there for the contract.
func planContext(ctx context.Context, p *Problem, spec arch.Spec, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	d := DefaultOptions()
	if opts.MaxBipartitions <= 0 || opts.MaxOrdersPerPartition <= 0 {
		// Either cap unset selects the default bounds for both caps and the
		// explicit window; every other caller-set field is kept.
		opts.MaxBipartitions, opts.MaxOrdersPerPartition = d.MaxBipartitions, d.MaxOrdersPerPartition
		if opts.ExplicitEpochs <= 0 {
			opts.ExplicitEpochs = d.ExplicitEpochs
		}
	}
	if opts.ExplicitEpochs < 2 {
		opts.ExplicitEpochs = 2
	}
	if opts.MaxEnumeration == 0 {
		opts.MaxEnumeration = d.MaxEnumeration
	}

	reg := obs.MetricsFrom(ctx)
	var planStart time.Time
	if reg != nil {
		reg.Counter("dpipe.plans").Inc()
		planStart = time.Now()
	}
	c, err := compile(p, spec, nil)
	if err != nil {
		return Result{}, err
	}
	dedup := reg.Counter("dpipe.dedup_skipped") // registered on every plan

	// Candidate orderings: the canonical topological order always
	// participates; each valid bipartition contributes orderings of its
	// virtual-root DAG. The list depends only on the DAG's shape, so it comes
	// from the process-wide cache when this shape was enumerated before —
	// unless the enumeration budget is below what the full scan examined, in
	// which case the live scan runs and fails exactly as it would uncached.
	key := shapeKey(c, opts)
	e := cachedEnumeration(key)
	if e != nil && opts.MaxEnumeration > 0 && opts.MaxEnumeration < e.examined {
		e = nil
	}
	cached := e != nil
	if cached && ctx.Err() != nil {
		return Result{}, fmt.Errorf("dpipe: problem %s: %w", p.Name, faults.Canceled(ctx))
	}
	if !cached {
		e, err = enumerate(ctx, p, c.index, opts)
	}
	if reg != nil {
		// Account the scan even when it aborted on budget/cancellation; a
		// cached enumeration accounts the scan it replaces.
		reg.Counter("dpipe.enumerated").Add(int64(e.examined))
		reg.Counter("dpipe.bipartitions").Add(int64(e.valid))
	}
	if err != nil {
		return Result{}, err
	}
	if !cached {
		e = storeEnumeration(key, e)
	}

	// Warm start: each valid hint the enumeration lacks is appended to the
	// enumerated candidates, so a front's candidate indices are list indices.
	// Candidates are deduplicated by canonical key (see candidateSet); the
	// enumeration regenerating a hinted candidate is the one case
	// dedup_skipped legitimately fires.
	dedup.Add(int64(e.dups))
	list := e.cands
	if len(opts.WarmHints) > 0 {
		hints := newCandidateSet(c.index, dedup)
		for _, h := range opts.WarmHints {
			if part, ok := h.bipartition(p); ok {
				hints.add(h.Order, part)
			}
		}
		list = list[:len(list):len(list)] // appends copy, never touching the shared e.cands
		for _, h := range hints.list {
			if slices.ContainsFunc(e.cands, func(cand candidate) bool { return cand.key == h.key }) {
				dedup.Inc()
				continue
			}
			list = append(list, h)
		}
	}

	if opts.Progress != nil {
		opts.Progress(obs.EnumerationProgress{
			Problem:      p.Name,
			Examined:     e.examined,
			Budget:       opts.MaxEnumeration,
			Bipartitions: e.explored,
			Candidates:   len(list),
		})
	}

	cells := reg.Counter("dpipe.dp_cells") // nil-safe on a nil registry

	// Front cache (see PlanContext and front). A shape with a single
	// candidate keeps no front: a hit would sweep that candidate just as a
	// miss does, so its plans count as misses. Chaos runs strike a fault site
	// per candidate, so they always sweep and count as neither.
	chaosRun := chaos.From(ctx) != nil
	var fkey []byte
	var f *front
	if !chaosRun && len(e.cands) > 1 {
		k, exact := c.window(opts.ExplicitEpochs)
		fkey = c.frontKey(make([]byte, 0, 16*len(c.names)+16), k, exact)
		f = e.cachedFront(fkey)
	}
	var res Result
	if f != nil {
		if res, err = c.planFront(ctx, list, len(e.cands), f, opts.ExplicitEpochs, cells); err != nil {
			return Result{}, err
		}
		reg.Counter("dpipe.front_hits").Inc()
	} else {
		if !chaosRun {
			reg.Counter("dpipe.front_misses").Inc()
		}
		results, assigns, err := c.evaluateAll(ctx, p.Name, list, opts.ExplicitEpochs, cells)
		if err != nil {
			return Result{}, err
		}
		best := argmin{i: -1}
		for i, cand := range list {
			best.offer(i, results[i].total, cand.key)
		}
		res = Result{TotalCycles: math.Inf(1)}
		if best.i >= 0 {
			n := len(c.names)
			res = c.result(list[best.i], results[best.i], assigns[best.i*n:(best.i+1)*n])
		}
		if fkey != nil {
			e.storeFront(fkey, newFront(e.cands, results[:len(e.cands)]))
		}
	}
	res.Candidates = len(list)
	if reg != nil {
		reg.Counter("dpipe.candidates").Add(int64(len(list)))
		reg.Histogram("dpipe.plan_ms", nil).Observe(float64(time.Since(planStart).Microseconds()) / 1e3)
	}
	// Enabled-guarded so the disabled path never builds the attr slice:
	// PlanContext runs once per objective evaluation and sub-layer.
	if lg := obs.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("dpipe: plan complete",
			"problem", p.Name,
			"candidates", len(list),
			"bipartitions", e.explored,
			"enumerated", e.examined,
			"cycles", res.TotalCycles)
	}
	return res, nil
}

// evaluateAll runs the DP sweeps of every candidate in list and returns
// their outcomes with their assignment records (candidate i's is
// assigns[i*n:(i+1)*n] for n ops; see sweep).
func (c *compiled) evaluateAll(ctx context.Context, name string, list []candidate, explicitEpochs int, cells *obs.Counter) ([]outcome, []int8, error) {
	// Fault-injection site, struck once per candidate schedule evaluation;
	// nil (a single branch) when no injector is attached to ctx.
	chaosSite := chaos.SiteFrom(ctx, chaos.SiteDPipeCandidate)
	n := len(c.names)
	results := make([]outcome, len(list))
	// Only the winner's assignment record becomes a map.
	assigns := make([]int8, len(list)*n)
	var s scratch
	for i, cand := range list {
		// Cancellation is checked per candidate schedule: a canceled plan
		// returns promptly instead of finishing the DP sweep.
		if ctx.Err() != nil {
			return nil, nil, faults.Canceled(ctx)
		}
		if err := chaosSite.Strike(ctx); err != nil {
			return nil, nil, fmt.Errorf("dpipe: problem %s: %w", name, err)
		}
		results[i] = c.evaluate(&s, cand.order, cand.first, explicitEpochs, cells, assigns[i*n:(i+1)*n])
	}
	return results, assigns, nil
}

// planFront plans from a cached front (see front) over list, whose first
// nEnum candidates are the enumerated ones the front indexes; the rest are
// hints the enumeration lacks, swept here. It reduces over the entries'
// totals at this problem's epoch count and the hints', then sweeps the
// winner for its busy cycles and assignment, so only those sweeps count as
// DP cells.
func (c *compiled) planFront(ctx context.Context, list []candidate, nEnum int, f *front, explicitEpochs int, cells *obs.Counter) (Result, error) {
	if ctx.Err() != nil {
		return Result{}, faults.Canceled(ctx)
	}
	k, exact := c.window(explicitEpochs)
	rest := c.rest(k)
	n := len(c.names)
	best := argmin{i: -1}
	var s scratch
	extras := list[nEnum:]
	outs := make([]outcome, len(extras))
	assigns := make([]int8, len(extras)*n)
	for h, cand := range extras {
		outs[h] = c.evaluate(&s, cand.order, cand.first, explicitEpochs, cells, assigns[h*n:(h+1)*n])
		best.offer(nEnum+h, outs[h].total, cand.key)
	}
	for _, e := range f.entries {
		total := e.mkAll
		if !exact {
			total = extrapolated(e.mkAll, e.slope, rest)
		}
		best.offer(e.cand, total, list[e.cand].key)
	}
	switch {
	case best.i < 0:
		return Result{TotalCycles: math.Inf(1)}, nil
	case best.i >= nEnum:
		h := best.i - nEnum
		return c.result(extras[h], outs[h], assigns[h*n:(h+1)*n]), nil
	}
	cand := list[best.i]
	assign := make([]int8, n)
	out := c.evaluate(&s, cand.order, cand.first, explicitEpochs, cells, assign)
	return c.result(cand, out, assign), nil
}

// argmin is the deterministic reduction over candidate totals: min total,
// ties broken by the canonical candidate key, so the winner does not depend
// on the order candidates are offered in. i is -1 until a candidate is
// offered that can win.
type argmin struct {
	i     int
	total float64
	key   string
}

// offer considers candidate i. Unschedulable candidates never win: a
// dependency-violating sweep reports +Inf, which extrapolation can turn
// into Inf-Inf = NaN. A NaN reaching the incumbent first would poison every
// later < comparison.
func (m *argmin) offer(i int, total float64, key string) {
	if math.IsInf(total, 1) || math.IsNaN(total) {
		return
	}
	if m.i < 0 || total < m.total || (total == m.total && key < m.key) {
		*m = argmin{i: i, total: total, key: key}
	}
}

// result materialises a candidate's outcome as a Result with fresh Order,
// Bipartition and Assignment values, so nothing a caller holds aliases the
// shared candidate cache.
func (c *compiled) result(cand candidate, out outcome, assign []int8) Result {
	res := Result{
		TotalCycles: out.total,
		Busy1D:      out.busy[perf.PE1D],
		Busy2D:      out.busy[perf.PE2D],
		Order:       make([]string, len(cand.order)),
		Assignment:  c.assignment(assign),
	}
	for i, op := range cand.order {
		res.Order[i] = c.names[op]
	}
	if cand.first != nil {
		res.Bipartition = graph.Bipartition{First: map[string]bool{}, Second: map[string]bool{}}
		for op, in := range cand.first {
			if in {
				res.Bipartition.First[c.names[op]] = true
			} else {
				res.Bipartition.Second[c.names[op]] = true
			}
		}
	}
	return res
}

// Sequential evaluates the problem with every op fully serialised on a
// fixed assignment (no 1D/2D overlap at all) — the Unfused/FLAT composition
// model. assign gives each op's array; nil assigns by class (contractions
// to 2D, vector work to 1D).
func Sequential(p *Problem, spec arch.Spec, assign map[string]perf.ArrayKind) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if assign == nil {
		assign = ClassAssignment(p)
	}
	order, err := p.Deps.TopoSort()
	if err != nil {
		return Result{}, fmt.Errorf("dpipe: problem %s: %w", p.Name, err)
	}
	c, err := compile(p, spec, assign)
	if err != nil {
		return Result{}, err
	}
	var perEpoch float64
	var busy [2]float64
	for op, arr := range c.fixed {
		cyc := c.cycles[op][arr]
		perEpoch += cyc
		busy[arr] += cyc
	}
	e := float64(p.Epochs)
	return Result{
		TotalCycles: perEpoch * e,
		Busy1D:      busy[perf.PE1D] * e,
		Busy2D:      busy[perf.PE2D] * e,
		Order:       order,
		Assignment:  assign,
	}, nil
}

// StaticPipelined evaluates the problem with a fixed array assignment but
// with the Eq. 43–46 overlap model — the FuseMax execution style, where the
// 2D and 1D arrays run a statically partitioned pipeline. assign gives each
// op's array; nil assigns by class.
func StaticPipelined(p *Problem, spec arch.Spec, assign map[string]perf.ArrayKind) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if assign == nil {
		assign = ClassAssignment(p)
	}
	order, err := p.Deps.TopoSort()
	if err != nil {
		return Result{}, fmt.Errorf("dpipe: problem %s: %w", p.Name, err)
	}
	return evaluateOrder(p, spec, order, nil, 12, assign, nil)
}

// ClassAssignment returns the prior-work static assignment: contraction
// Einsums on the 2D array, everything else on the 1D array.
func ClassAssignment(p *Problem) map[string]perf.ArrayKind {
	assign := make(map[string]perf.ArrayKind, len(p.Ops))
	for name, op := range p.Ops {
		if op.E.Class() == einsum.ClassContraction {
			assign[name] = perf.PE2D
		} else {
			assign[name] = perf.PE1D
		}
	}
	return assign
}

// FuseMaxAssignment returns FuseMax's published static mapping: GEMMs on
// the 2D array, and additionally the *elementwise* softmax stages (the
// shifted exponential over the score tile — ops whose output spans both a
// row- and a column-mapped dimension) on the 2D array as well ("pipelines
// partial softmax over 2D PE arrays", §2.3). Reductions and the running
// state updates stay on the 1D array, which is why FuseMax shows high 1D
// and modest 2D utilization in Figure 10.
// The choice is made at design time per architecture: on cloud the 2D
// array's 65536 PEs beat the 256-lane 1D array even at the vector-emulation
// penalty, while the edge variant (the MAS-Attention-style pipeline the
// paper uses for edge) keeps the exponentials on the vector array.
func FuseMaxAssignment(p *Problem, spec arch.Spec) map[string]perf.ArrayKind {
	assign := ClassAssignment(p)
	// The score tile is identified structurally: its indices are reduced by
	// a downstream contraction (the attention-times-V product reduces over
	// the inner key index). Pure elementwise maps whose output carries such
	// an index are the "partial softmax" stages FuseMax maps onto the 2D
	// array.
	contractionRed := map[string]bool{}
	for _, op := range p.Ops {
		if op.E.Class() == einsum.ClassContraction {
			for _, idx := range op.E.ReductionIndices(nil) {
				contractionRed[idx] = true
			}
		}
	}
	for name, op := range p.Ops {
		if op.E.Class() != einsum.ClassVector || op.E.Reduce != einsum.ReduceNone {
			continue
		}
		for _, idx := range op.E.OutIdx {
			if contractionRed[idx] && op.Cycles(spec, perf.PE2D) <= op.Cycles(spec, perf.PE1D) {
				assign[name] = perf.PE2D
				break
			}
		}
	}
	return assign
}

// sortedOpNames returns the problem's op names sorted; used by tests and
// trace output.
func sortedOpNames(p *Problem) []string {
	names := make([]string, 0, len(p.Ops))
	for n := range p.Ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
