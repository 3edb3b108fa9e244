package dpipe

import (
	"fmt"
	"math"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// compiled is a Problem lowered to integer indices for the Eq. 43–46 DP.
// An op costs the same on a given array throughout a plan, so its cycles are
// computed once here instead of once per DP cell, and every per-instance
// lookup the DP makes is a slice index rather than a string-keyed map probe.
// It is built once per PlanContext, Sequential, StaticPipelined and
// TraceSchedule call and is read-only afterwards, so DPipe workers share it.
type compiled struct {
	epochs int64
	// names are the op names, sorted; op i is names[i].
	names []string
	index map[string]int
	// cycles[op][arr] is OpSpec.Cycles on array perf.ArrayKind(arr).
	cycles [][2]float64
	// preds[op] are the intra-epoch predecessors, in Deps.Pred order.
	preds [][]int
	// state[op] are the previous-epoch producers of the recurrence edges
	// into op, in StateEdges order.
	state [][]int
	// fixed pins each op to an array; nil lets the DP choose (Eq. 45).
	fixed []perf.ArrayKind
}

// compile lowers a validated problem. fixedAssign, when non-nil, pins ops to
// arrays; an op it omits is pinned to its zero value, PE2D.
func compile(p *Problem, spec arch.Spec, fixedAssign map[string]perf.ArrayKind) (*compiled, error) {
	names := sortedOpNames(p)
	c := &compiled{
		epochs: p.Epochs,
		names:  names,
		index:  make(map[string]int, len(names)),
		cycles: make([][2]float64, len(names)),
		preds:  make([][]int, len(names)),
		state:  make([][]int, len(names)),
	}
	for i, n := range names {
		c.index[n] = i
	}
	for i, n := range names {
		op := p.Ops[n]
		c.cycles[i] = [2]float64{op.Cycles(spec, perf.PE2D), op.Cycles(spec, perf.PE1D)}
		for _, pred := range p.Deps.Pred(n) {
			c.preds[i] = append(c.preds[i], c.index[pred])
		}
	}
	for _, se := range p.StateEdges {
		to := c.index[se.To]
		c.state[to] = append(c.state[to], c.index[se.From])
	}
	if fixedAssign != nil {
		c.fixed = make([]perf.ArrayKind, len(names))
		for i, n := range names {
			arr := fixedAssign[n]
			if arr != perf.PE2D && arr != perf.PE1D {
				return nil, fmt.Errorf("dpipe: problem %s: op %q pinned to unknown array %d", p.Name, n, arr)
			}
			c.fixed[i] = arr
		}
	}
	return c, nil
}

// opIndices maps an order of op names to op indices.
func (c *compiled) opIndices(order []string) ([]int, error) {
	out := make([]int, len(order))
	for i, n := range order {
		op, ok := c.index[n]
		if !ok {
			return nil, fmt.Errorf("dpipe: order names unknown op %q", n)
		}
		out[i] = op
	}
	return out, nil
}

// firstSet maps a bipartition's first subgraph to a per-op membership slice;
// an empty set maps to nil, the unpartitioned (epoch-major) sequencing.
// Names outside the problem are ignored.
func (c *compiled) firstSet(first map[string]bool) []bool {
	if len(first) == 0 {
		return nil
	}
	out := make([]bool, len(c.names))
	for n, in := range first {
		if op, ok := c.index[n]; ok {
			out[op] = in
		}
	}
	return out
}

// assignment converts a sweep's per-op assignment record (see sweep) into
// the Result map, skipping ops the sweep never placed.
func (c *compiled) assignment(rec []int8) map[string]perf.ArrayKind {
	assign := make(map[string]perf.ArrayKind, len(c.names))
	for op, a := range rec {
		if a != 0 {
			assign[c.names[op]] = perf.ArrayKind(a - 1)
		}
	}
	return assign
}

// slot identifies one op instance in one epoch of the DP sequence.
type slot struct {
	op, epoch int32
}

// sequence appends the global instance processing sequence for the DP to
// dst. With first nil the sequence is epoch-major. With a bipartition (S1 =
// first, S2 = the rest) the sequence realises Figure 7(d)'s pipeline: pass k
// interleaves epoch k's S1 instances with epoch k-1's S2 instances,
// following the candidate order's relative positions, with a trailing drain
// pass for the final epoch's S2. Dependency safety follows from the
// bipartition's dependency completeness (no S2 -> S1 edges): every
// instance's predecessors appear earlier in the sequence.
func sequence(dst []slot, order []int, first []bool, epochs int) []slot {
	if first == nil {
		for k := 0; k < epochs; k++ {
			for _, op := range order {
				dst = append(dst, slot{int32(op), int32(k)})
			}
		}
		return dst
	}
	for k := 0; k <= epochs; k++ {
		for _, op := range order {
			if first[op] && k < epochs {
				dst = append(dst, slot{int32(op), int32(k)})
			}
			if !first[op] && k > 0 {
				dst = append(dst, slot{int32(op), int32(k - 1)})
			}
		}
	}
	return dst
}

// scratch holds one DPipe worker's reusable DP buffers.
type scratch struct {
	seq  []slot
	endT []float64
}

// unscheduled marks an endT entry whose instance has not been placed yet; a
// placed instance always ends at a time >= 0 (or NaN), never at -Inf.
var unscheduled = math.Inf(-1)

// recorder collects a sweep's placements for TraceSchedule.
type recorder struct {
	entries []TraceEntry
	// err names the unscheduled dependency that made the sweep return +Inf.
	err error
}

// sweep is the core DP (Eqs. 43–46): process op instances in sequence order;
// for each, pick the array minimising completion time given (a) the array's
// accumulated occupancy Time[pe_j] (Eq. 43 first term) and (b) the latest
// finishing dependency (Eq. 43 second term). Eq. 44 adds the op latency per
// array, Eq. 45 selects the earliest completion, and Eq. 46 commits the
// chosen array's timeline. It returns the makespan and per-array busy
// cycles (indexed by perf.ArrayKind); seq must only hold epochs below
// epochs.
//
// assign, when non-nil, records each op's last placement as
// perf.ArrayKind+1 (0 = never placed). rec, when non-nil, records every
// placement. cells is credited with one increment per instance placed
// (nil-safe; on a cold sweep a single upfront Add covering the whole
// sequence; on a bounded sweep the instances actually placed, credited when
// the sweep ends or aborts).
//
// A sequence whose instance finds a dependency unscheduled (possible when a
// state producer lands in the second subgraph while its consumer sits in the
// first) is rejected with an infinite makespan. sb, when non-nil, arms the
// warm-start abort (see sweepBound): the sweep returns +Inf as soon as the
// candidate provably cannot beat sb.limit. A nil sb is the exact cold sweep.
func (c *compiled) sweep(s *scratch, seq []slot, epochs int, cells *obs.Counter, sb *sweepBound, assign []int8, rec *recorder) (float64, [2]float64) {
	if sb == nil {
		cells.Add(int64(len(seq)))
	}
	n := len(c.names)
	if cap(s.endT) < epochs*n {
		s.endT = make([]float64, epochs*n)
	}
	endT := s.endT[:epochs*n]
	for i := range endT {
		endT[i] = unscheduled
	}
	var timeline, busy [2]float64
	makespan := 0.0

	for i, inst := range seq {
		op, row := int(inst.op), int(inst.epoch)*n
		// Latest dependency completion: intra-epoch predecessors plus
		// cross-epoch state edges from the previous epoch.
		depEnd := 0.0
		for _, pred := range c.preds[op] {
			e := endT[row+pred]
			if e == unscheduled {
				if sb != nil {
					cells.Add(int64(i + 1))
				}
				if rec != nil {
					rec.err = fmt.Errorf("dpipe: trace: dependency %s@%d unscheduled before %s@%d",
						c.names[pred], inst.epoch, c.names[op], inst.epoch)
				}
				return math.Inf(1), busy
			}
			if e > depEnd {
				depEnd = e
			}
		}
		if inst.epoch > 0 {
			for _, from := range c.state[op] {
				e := endT[row-n+from]
				if e == unscheduled {
					if sb != nil {
						cells.Add(int64(i + 1))
					}
					if rec != nil {
						rec.err = fmt.Errorf("dpipe: trace: state dependency %s@%d unscheduled before %s@%d",
							c.names[from], inst.epoch-1, c.names[op], inst.epoch)
					}
					return math.Inf(1), busy
				}
				if e > depEnd {
					depEnd = e
				}
			}
		}

		lo, hi := perf.PE2D, perf.PE1D
		if c.fixed != nil {
			lo, hi = c.fixed[op], c.fixed[op]
		}
		bestEnd := math.Inf(1)
		bestArr := perf.PE2D
		var bestCycles, bestStart float64
		for arr := lo; arr <= hi; arr++ {
			cyc := c.cycles[op][arr]
			start := maxFloat(timeline[arr], depEnd) // Eq. 43
			end := start + cyc                       // Eq. 44
			if end < bestEnd {                       // Eq. 45
				bestEnd, bestArr, bestCycles, bestStart = end, arr, cyc, start
			}
		}
		timeline[bestArr] = bestEnd // Eq. 46
		busy[bestArr] += bestCycles
		endT[row+op] = bestEnd
		if assign != nil {
			assign[op] = int8(bestArr) + 1
		}
		if rec != nil {
			rec.entries = append(rec.entries, TraceEntry{
				Op: c.names[op], Epoch: int(inst.epoch), Array: bestArr, Start: bestStart, End: bestEnd,
			})
		}
		if bestEnd > makespan {
			makespan = bestEnd
		}

		if sb != nil {
			if i+1 == sb.checkpoint {
				sb.ckMk = makespan
				sb.ckBusy1 = busy[perf.PE1D]
				sb.ckBusy2 = busy[perf.PE2D]
			}
			// Lower-bound the final extrapolated total (see sweepBound's
			// soundness note) and abort once it clears the incumbent.
			lb := makespan
			if sb.scale > 0 && (sb.checkpoint == 0 || i+1 > sb.checkpoint) {
				mb := sb.mkBase
				if sb.checkpoint > 0 {
					mb = sb.ckMk
				}
				lb = makespan + (makespan-mb)*sb.scale
			}
			if lb > sb.limit {
				sb.aborted, sb.abortMk, sb.abortAt = true, makespan, i+1
				cells.Add(int64(i + 1))
				return math.Inf(1), busy
			}
		}
	}
	if sb != nil {
		cells.Add(int64(len(seq)))
	}
	return makespan, busy
}

// maxFloat is math.Max with the ordered cases inlined: the assembly
// math.Max is a call per DP cell, and it is needed only for equal operands,
// NaNs and signed zeros, which it still decides.
func maxFloat(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// outcome is one candidate's extrapolated makespan and per-array busy
// cycles (indexed by perf.ArrayKind), with the explicit-window figures the
// makespan was extrapolated from: mkAll, the window's makespan, and slope,
// its steady-state per-epoch increment (0 when the window covers every
// epoch). An unschedulable candidate reads +Inf in total and mkAll. A
// pruned one reads +Inf in total, and mkAll and slope are lower bounds of
// the figures its complete sweeps would have produced.
type outcome struct {
	total  float64
	busy   [2]float64
	mkAll  float64
	slope  float64
	pruned bool
}

// window clamps an explicit-epoch count to the problem: the DP sweeps k
// epochs exactly, and exact reports that they are all of them, so no
// extrapolation applies.
func (c *compiled) window(explicitEpochs int) (k int, exact bool) {
	k = explicitEpochs
	if int64(k) > c.epochs {
		k = int(c.epochs)
	}
	if k < 1 {
		k = 1
	}
	return k, int64(k) >= c.epochs
}

// rest is the number of epochs extrapolated beyond an explicit window of k.
func (c *compiled) rest(k int) float64 { return float64(c.epochs - int64(k)) }

// perEpoch is the steady-state per-epoch increment of a quantity that reads
// base after the base window and all after the full window, span epochs
// later.
func perEpoch(all, base, span float64) float64 { return (all - base) / span }

// extrapolated extends a full-window value by rest epochs at slope. Cold
// plans and front hits (see front) both total a candidate through it, so the
// two agree to the bit.
func extrapolated(all, slope, rest float64) float64 { return all + slope*rest }

// run builds the candidate's sequence over epochs explicit epochs in the
// worker's scratch and sweeps it.
func (c *compiled) run(s *scratch, order []int, first []bool, epochs int, cells *obs.Counter, sb *sweepBound, assign []int8) (float64, [2]float64) {
	s.seq = sequence(s.seq[:0], order, first, epochs)
	return c.sweep(s, s.seq, epochs, cells, sb, assign, nil)
}

// evaluate runs the Eq. 43–46 DP over explicitEpochs epochs and
// extrapolates to the problem's epoch count. first, when non-nil, is the
// bipartition's first subgraph: the instance sequence then interleaves the
// second subgraph of epoch k-1 with the first subgraph of epoch k (Figure
// 7(d)); a nil first yields plain epoch-major sequencing. cells, when
// non-nil, counts DP instance placements. assign, when non-nil, receives the
// last explicit epoch's per-op array assignment (see sweep).
//
// bound, when finite, is a warm-start incumbent total: the sweeps abort
// with +Inf as soon as a sound lower bound of this candidate's final
// extrapolated total exceeds it (see sweepBound). An infinite bound runs
// the exact cold path — same sweeps, same order, same upfront cell
// accounting.
func (c *compiled) evaluate(s *scratch, order []int, first []bool, explicitEpochs int, cells *obs.Counter, bound float64, assign []int8) outcome {
	k, exact := c.window(explicitEpochs)
	warm := !math.IsInf(bound, 1)

	if exact {
		// All epochs explicit: the makespan is the total, so the incumbent
		// bounds the sweep directly (scale 0 = no extrapolation term).
		var sb *sweepBound
		if warm {
			sb = &sweepBound{limit: bound}
		}
		mk, busy := c.run(s, order, first, k, cells, sb, assign)
		if sb != nil && sb.aborted {
			return outcome{total: math.Inf(1), busy: busy, mkAll: sb.abortMk, pruned: true}
		}
		return outcome{total: mk, busy: busy, mkAll: mk}
	}

	// Steady-state extrapolation: average the per-epoch increment over the
	// second half of the explicit window, which smooths periodic placement
	// patterns (e.g. every fifth GEMM spilling to the 1D array).
	base := k / 2
	if base < 1 {
		base = 1
	}
	span := float64(k - base)
	rest := c.rest(k)
	extrapolate := func(mkAll, mkBase float64, busyAll, busyBase [2]float64) outcome {
		deltaMk := perEpoch(mkAll, mkBase, span)
		var busy [2]float64
		for arr := range busy {
			busy[arr] = extrapolated(busyAll[arr], perEpoch(busyAll[arr], busyBase[arr], span), rest)
		}
		return outcome{total: extrapolated(mkAll, deltaMk, rest), busy: busy, mkAll: mkAll, slope: deltaMk}
	}

	if !warm {
		mkAll, busyAll := c.run(s, order, first, k, cells, nil, assign)
		mkBase, busyBase := c.run(s, order, first, base, cells, nil, nil)
		return extrapolate(mkAll, mkBase, busyAll, busyBase)
	}

	if first == nil {
		// Epoch-major sequences nest: the base window is a strict prefix of
		// the full sequence and the DP is a deterministic left-to-right
		// recurrence, so one bounded sweep with a checkpoint at the base
		// boundary recovers bit-identical (mkBase, busyBase) values to the
		// cold path's separate base sweep — at two thirds of its cells, plus
		// whatever the bound aborts.
		sb := &sweepBound{limit: bound, scale: rest / span, checkpoint: base * len(order)}
		mkAll, busyAll := c.run(s, order, nil, k, cells, sb, assign)
		if sb.aborted {
			// The full sequence extends the base window, so mkAll >= mkBase
			// and the slope is >= 0; past the checkpoint mkBase is known.
			slope := 0.0
			if sb.abortAt >= sb.checkpoint {
				slope = perEpoch(sb.abortMk, sb.ckMk, span)
			}
			return outcome{total: math.Inf(1), busy: busyAll, mkAll: sb.abortMk, slope: slope, pruned: true}
		}
		if math.IsInf(mkAll, 1) {
			return outcome{total: math.Inf(1), busy: busyAll, mkAll: math.Inf(1)}
		}
		var busyBase [2]float64
		busyBase[perf.PE1D], busyBase[perf.PE2D] = sb.ckBusy1, sb.ckBusy2
		return extrapolate(mkAll, sb.ckMk, busyAll, busyBase)
	}

	// Bipartition sequences do not nest (the base window interleaves
	// differently), and greedy list-scheduling anomalies mean mkAll >= mkBase
	// is unproven — so the base sweep runs unbounded, exactly as cold, and
	// only the full sweep gets the slope-aware bound seeded with the exact
	// mkBase.
	mkBase, busyBase := c.run(s, order, first, base, cells, nil, nil)
	if math.IsInf(mkBase, 1) {
		// The order violates a dependency; the full sweep would be +Inf too.
		// Return a clean +Inf rather than extrapolating Inf-Inf into NaN.
		return outcome{total: math.Inf(1), busy: busyBase, mkAll: math.Inf(1)}
	}
	sb := &sweepBound{limit: bound, mkBase: mkBase, scale: rest / span}
	mkAll, busyAll := c.run(s, order, first, k, cells, sb, assign)
	if sb.aborted {
		return outcome{total: math.Inf(1), busy: busyAll, mkAll: sb.abortMk, slope: perEpoch(sb.abortMk, mkBase, span), pruned: true}
	}
	if math.IsInf(mkAll, 1) {
		return outcome{total: math.Inf(1), busy: busyAll, mkAll: math.Inf(1)}
	}
	return extrapolate(mkAll, mkBase, busyAll, busyBase)
}

// sweepBound arms one schedule sweep with a warm-start abort: the sweep
// stops, returning +Inf, as soon as lb(m) > limit, where m is the monotone
// prefix makespan and lb is a provable lower bound of the candidate's final
// extrapolated total. Soundness:
//
//   - Before the checkpoint of a nesting (epoch-major) sweep, and whenever
//     no extrapolation applies (scale 0), lb = m: the final makespan is at
//     least any prefix makespan, and the extrapolated total adds a
//     non-negative term.
//   - Past the checkpoint (or with mkBase supplied), lb = f(m) =
//     m + (m-mkBase)*scale. f is increasing in m (scale >= 0) and the final
//     total equals f(final makespan) with final makespan >= m, so
//     f(m) <= total.
//
// Because the limit carries a relative slack, a candidate whose exact total
// ties the incumbent is never aborted by rounding in f — warm pruning only
// removes candidates that are strictly worse than the hinted incumbent.
//
// An aborted sweep records its prefix makespan m, a lower bound of the
// complete sweep's makespan that the front cache keeps (see front).
type sweepBound struct {
	limit  float64 // abort threshold (the hinted incumbent total, plus slack)
	mkBase float64 // base-window makespan for the extrapolated bound (bipartition sweeps)
	scale  float64 // rest/span extrapolation factor; 0 disables the slope term
	// checkpoint, when positive, is the instance index ending the base
	// window of a nesting sweep; the DP state there is recorded below and
	// stands in for the cold path's separate base sweep.
	checkpoint int
	ckMk       float64
	ckBusy1    float64
	ckBusy2    float64
	// aborted is set when the sweep stopped on the bound, after abortAt
	// instances with prefix makespan abortMk.
	aborted bool
	abortMk float64
	abortAt int
}

// evaluateOrder compiles the problem and evaluates one candidate with the
// DP; it serves single-schedule callers (StaticPipelined) and the equation
// oracles.
func evaluateOrder(p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter, bound float64) (Result, error) {
	c, err := compile(p, spec, fixedAssign)
	if err != nil {
		return Result{}, err
	}
	ord, err := c.opIndices(order)
	if err != nil {
		return Result{}, err
	}
	cand := candidate{order: ord, first: c.firstSet(first)}
	assign := make([]int8, len(c.names))
	out := c.evaluate(&scratch{}, cand.order, cand.first, explicitEpochs, cells, bound, assign)
	return c.result(cand, out, assign), nil
}
