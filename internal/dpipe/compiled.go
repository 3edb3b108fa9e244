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
// TraceSchedule call and is read-only afterwards.
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

// scratch holds one plan's reusable DP buffers.
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
// placement. cells is credited with one increment per instance in seq
// (nil-safe; a single upfront Add, so the inner loop stays
// allocation-free).
//
// A sequence whose instance finds a dependency unscheduled (possible when a
// state producer lands in the second subgraph while its consumer sits in the
// first) is rejected with an infinite makespan.
func (c *compiled) sweep(s *scratch, seq []slot, epochs int, cells *obs.Counter, assign []int8, rec *recorder) (float64, [2]float64) {
	cells.Add(int64(len(seq)))
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

	for _, inst := range seq {
		op, row := int(inst.op), int(inst.epoch)*n
		// Latest dependency completion: intra-epoch predecessors plus
		// cross-epoch state edges from the previous epoch.
		depEnd := 0.0
		for _, pred := range c.preds[op] {
			e := endT[row+pred]
			if e == unscheduled {
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
// epoch). An unschedulable candidate reads +Inf in mkAll and +Inf or NaN
// in total.
type outcome struct {
	total float64
	busy  [2]float64
	mkAll float64
	slope float64
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

// run builds the candidate's sequence over epochs explicit epochs in
// scratch s and sweeps it.
func (c *compiled) run(s *scratch, order []int, first []bool, epochs int, cells *obs.Counter, assign []int8) (float64, [2]float64) {
	s.seq = sequence(s.seq[:0], order, first, epochs)
	return c.sweep(s, s.seq, epochs, cells, assign, nil)
}

// evaluate runs the Eq. 43–46 DP over explicitEpochs epochs and
// extrapolates to the problem's epoch count. first, when non-nil, is the
// bipartition's first subgraph: the instance sequence then interleaves the
// second subgraph of epoch k-1 with the first subgraph of epoch k (Figure
// 7(d)); a nil first yields plain epoch-major sequencing. cells, when
// non-nil, counts DP instance placements. assign, when non-nil, receives the
// last explicit epoch's per-op array assignment (see sweep).
func (c *compiled) evaluate(s *scratch, order []int, first []bool, explicitEpochs int, cells *obs.Counter, assign []int8) outcome {
	k, exact := c.window(explicitEpochs)
	mkAll, busyAll := c.run(s, order, first, k, cells, assign)
	if exact {
		// All epochs explicit: the makespan is the total.
		return outcome{total: mkAll, busy: busyAll, mkAll: mkAll}
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
	mkBase, busyBase := c.run(s, order, first, base, cells, nil)
	deltaMk := perEpoch(mkAll, mkBase, span)
	var busy [2]float64
	for arr := range busy {
		busy[arr] = extrapolated(busyAll[arr], perEpoch(busyAll[arr], busyBase[arr], span), rest)
	}
	return outcome{total: extrapolated(mkAll, deltaMk, rest), busy: busy, mkAll: mkAll, slope: deltaMk}
}

// evaluateOrder compiles the problem and evaluates one candidate with the
// DP; it serves single-schedule callers (StaticPipelined) and the equation
// oracles.
func evaluateOrder(p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter) (Result, error) {
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
	out := c.evaluate(&scratch{}, cand.order, cand.first, explicitEpochs, cells, assign)
	return c.result(cand, out, assign), nil
}
