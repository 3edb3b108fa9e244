package dpipe

import (
	"math"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// This file keeps the map-based Eq. 43–46 DP that preceded the compiled
// form (compiled.go), unchanged but for the ref prefix on its names and the
// removal of its warm-start bound, as the reference the compiled DP must
// match bit for bit (see
// TestCompiledDPMatchesReference). It looks every op up by name and calls
// OpSpec.Cycles per DP cell, which is exactly what the compiled form
// removes.

// refEvaluate runs the Eq. 43–46 DP over explicitEpochs epochs and
// extrapolates to p.Epochs. first, when non-nil, is the bipartition's first
// subgraph: the instance sequence then interleaves the second subgraph of
// epoch k-1 with the first subgraph of epoch k (Figure 7(d)); a nil first
// yields plain epoch-major sequencing. When fixedAssign is non-nil each op
// is pinned to its assigned array; otherwise the DP chooses per Eq. 45.
// cells, when non-nil, counts DP instance placements.
func refEvaluate(p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter) Result {
	k := explicitEpochs
	if int64(k) > p.Epochs {
		k = int(p.Epochs)
	}
	if k < 1 {
		k = 1
	}

	if int64(k) >= p.Epochs {
		// All epochs explicit: the makespan is the total.
		mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, first, k), fixedAssign, cells)
		return Result{
			TotalCycles: mkAll,
			Busy1D:      busyAll[perf.PE1D],
			Busy2D:      busyAll[perf.PE2D],
			Assignment:  assign,
		}
	}

	// Steady-state extrapolation: average the per-epoch increment over the
	// second half of the explicit window, which smooths periodic placement
	// patterns (e.g. every fifth GEMM spilling to the 1D array).
	base := k / 2
	if base < 1 {
		base = 1
	}
	span := float64(k - base)
	rest := float64(p.Epochs - int64(k))

	mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, first, k), fixedAssign, cells)
	mkBase, busyBase, _ := refSchedule(p, spec, refBuildSequence(order, first, base), fixedAssign, cells)
	deltaMk := (mkAll - mkBase) / span
	delta1 := (busyAll[perf.PE1D] - busyBase[perf.PE1D]) / span
	delta2 := (busyAll[perf.PE2D] - busyBase[perf.PE2D]) / span
	return Result{
		TotalCycles: mkAll + deltaMk*rest,
		Busy1D:      busyAll[perf.PE1D] + delta1*rest,
		Busy2D:      busyAll[perf.PE2D] + delta2*rest,
		Assignment:  assign,
	}
}

// refBuildSequence constructs the global instance processing sequence for the
// DP. Without a bipartition the sequence is epoch-major. With a bipartition
// (S1 = first, S2 = the rest) the sequence realises Figure 7(d)'s pipeline:
// pass k interleaves epoch k's S1 instances with epoch k-1's S2 instances,
// following the candidate order's relative positions, with a trailing drain
// pass for the final epoch's S2. Dependency safety follows from the
// bipartition's dependency completeness (no S2 -> S1 edges): every
// instance's predecessors appear earlier in the sequence.
func refBuildSequence(order []string, first map[string]bool, epochs int) []instance {
	if first == nil || len(first) == 0 {
		seq := make([]instance, 0, len(order)*epochs)
		for k := 0; k < epochs; k++ {
			for _, name := range order {
				seq = append(seq, instance{name, k})
			}
		}
		return seq
	}
	seq := make([]instance, 0, len(order)*(epochs+1))
	for k := 0; k <= epochs; k++ {
		for _, name := range order {
			if first[name] && k < epochs {
				seq = append(seq, instance{name, k})
			}
			if !first[name] && k > 0 {
				seq = append(seq, instance{name, k - 1})
			}
		}
	}
	return seq
}

// refSchedule is the core DP (Eqs. 43–46): process op instances epoch-major in
// the candidate order; for each, pick the array minimising completion time
// given (a) the array's accumulated occupancy Time[pe_j] (Eq. 43 first
// term) and (b) the latest finishing dependency (Eq. 43 second term).
// Eq. 44 adds the op latency per array, Eq. 45 selects the earliest
// completion, and Eq. 46 commits the chosen array's timeline. Returns the
// makespan, per-array busy cycles, and the last epoch's array assignment.
// cells is credited with one increment per instance in seq (nil-safe; a
// single upfront Add covering the whole sequence, so the inner loop stays
// allocation-free).
func refSchedule(p *Problem, spec arch.Spec, seq []instance, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter) (float64, map[perf.ArrayKind]float64, map[string]perf.ArrayKind) {
	cells.Add(int64(len(seq)))
	timeline := map[perf.ArrayKind]float64{perf.PE2D: 0, perf.PE1D: 0}
	busy := map[perf.ArrayKind]float64{perf.PE2D: 0, perf.PE1D: 0}
	endT := make(map[instance]float64, len(seq))
	assign := make(map[string]perf.ArrayKind, len(p.Ops))
	makespan := 0.0

	for _, inst := range seq {
		name, epoch := inst.name, inst.epoch
		op := p.Ops[name]
		// Latest dependency completion: intra-epoch predecessors plus
		// cross-epoch state edges from the previous epoch. A predecessor
		// instance that has not been scheduled yet means the candidate
		// sequence violates a dependency (possible when a state producer
		// lands in the second subgraph while its consumer sits in the
		// first); such sequences are rejected with an infinite makespan.
		depEnd := 0.0
		for _, pred := range p.Deps.Pred(name) {
			e, ok := endT[instance{pred, epoch}]
			if !ok {
				return math.Inf(1), busy, assign
			}
			if e > depEnd {
				depEnd = e
			}
		}
		if epoch > 0 {
			for _, se := range p.StateEdges {
				if se.To != name {
					continue
				}
				e, ok := endT[instance{se.From, epoch - 1}]
				if !ok {
					return math.Inf(1), busy, assign
				}
				if e > depEnd {
					depEnd = e
				}
			}
		}

		arrays := []perf.ArrayKind{perf.PE2D, perf.PE1D}
		if fixedAssign != nil {
			arrays = []perf.ArrayKind{fixedAssign[name]}
		}
		bestEnd := math.Inf(1)
		var bestArr perf.ArrayKind
		var bestCycles float64
		for _, arr := range arrays {
			cyc := op.Cycles(spec, arr)
			start := math.Max(timeline[arr], depEnd) // Eq. 43
			end := start + cyc                       // Eq. 44
			if end < bestEnd {                       // Eq. 45
				bestEnd, bestArr, bestCycles = end, arr, cyc
			}
		}
		timeline[bestArr] = bestEnd // Eq. 46
		busy[bestArr] += bestCycles
		endT[inst] = bestEnd
		assign[name] = bestArr
		if bestEnd > makespan {
			makespan = bestEnd
		}
	}
	return makespan, busy, assign
}
