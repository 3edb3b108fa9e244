package dpipe

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// sameFloat compares bit patterns, so NaN equals NaN and -0 differs from 0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompiledDPMatchesReference sweeps seeded random problems on cloud and
// edge through the compiled DP and the map-based reference it replaced
// (reference_test.go), requiring bit-equal makespan, busy cycles,
// assignment and dp_cells. The sweep covers epoch-major and
// bipartition-interleaved sequences (valid bipartitions and arbitrary
// subsets), dependency-violating orders, fixed assignments and extrapolated
// epoch counts.
func TestCompiledDPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2406))
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for i := 0; i < 600; i++ {
			p := randomProblem(rng, i)
			if rng.Intn(2) == 0 {
				p.Epochs = int64(6 + rng.Intn(120)) // extrapolated
			}
			explicit := 2 + rng.Intn(11)
			nodes := p.Deps.Nodes()

			var order []string
			if rng.Intn(5) == 0 {
				order = append([]string(nil), nodes...) // may violate a dependency
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			} else {
				orders := p.Deps.TopoOrders(8)
				order = orders[rng.Intn(len(orders))]
			}

			var first map[string]bool
			switch rng.Intn(3) {
			case 1:
				parts, err := p.Deps.Bipartitions()
				if err != nil {
					t.Fatal(err)
				}
				if len(parts) > 0 {
					first = parts[rng.Intn(len(parts))].First
				}
			case 2:
				first = map[string]bool{}
				for _, n := range nodes {
					if rng.Intn(2) == 0 {
						first[n] = true
					}
				}
			}

			var fixed map[string]perf.ArrayKind
			switch rng.Intn(3) {
			case 1:
				fixed = ClassAssignment(p)
			case 2:
				fixed = map[string]perf.ArrayKind{}
				for _, n := range nodes {
					fixed[n] = perf.ArrayKind(rng.Intn(2))
				}
			}

			refReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
			want := refEvaluate(p, spec, order, first, explicit, fixed, refReg.Counter("dpipe.dp_cells"))
			got, err := evaluateOrder(p, spec, order, first, explicit, fixed, gotReg.Counter("dpipe.dp_cells"))
			if err != nil {
				t.Fatal(err)
			}
			where := spec.Name + " " + p.Name
			if !sameFloat(got.TotalCycles, want.TotalCycles) ||
				!sameFloat(got.Busy1D, want.Busy1D) || !sameFloat(got.Busy2D, want.Busy2D) {
				t.Fatalf("%s (order %v first %v fixed %v explicit %d epochs %d): compiled (%v, %v, %v), reference (%v, %v, %v)",
					where, order, first, fixed, explicit, p.Epochs,
					got.TotalCycles, got.Busy1D, got.Busy2D, want.TotalCycles, want.Busy1D, want.Busy2D)
			}
			if len(got.Assignment) != len(want.Assignment) {
				t.Fatalf("%s: assignment %v, reference %v", where, got.Assignment, want.Assignment)
			}
			for n, arr := range want.Assignment {
				if got.Assignment[n] != arr {
					t.Fatalf("%s: assignment %v, reference %v", where, got.Assignment, want.Assignment)
				}
			}
			if g, w := gotReg.Counter("dpipe.dp_cells").Value(), refReg.Counter("dpipe.dp_cells").Value(); g != w {
				t.Fatalf("%s: dp_cells %d, reference %d", where, g, w)
			}

			// The trace recorder rides the same sweep: its makespan and
			// placements must match the reference DP over the same window.
			mk, _, assign := refSchedule(p, spec, refBuildSequence(order, first, explicit), fixed, nil)
			tr, err := TraceSchedule(p, spec, order, first, explicit, fixed)
			if math.IsInf(mk, 1) {
				if err == nil {
					t.Fatalf("%s: trace accepted a sequence the reference rejects", p.Name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: trace: %v", p.Name, err)
			}
			if !sameFloat(tr.Makespan, mk) {
				t.Fatalf("%s: trace makespan %v, reference %v", p.Name, tr.Makespan, mk)
			}
			last := map[string]TraceEntry{}
			for _, e := range tr.Entries {
				if prev, ok := last[e.Op]; !ok || e.Epoch >= prev.Epoch {
					last[e.Op] = e
				}
			}
			for n, arr := range assign {
				if last[n].Array != arr {
					t.Fatalf("%s: trace places %s@%d on %v, reference %v", p.Name, n, last[n].Epoch, last[n].Array, arr)
				}
			}
		}
	}
}

// A plan must agree with one driven through the reference DP candidate by
// candidate over the same enumeration: the same per-candidate totals, hence
// the same winner and dp_cells.
func TestPlanMatchesReferenceCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := Options{MaxBipartitions: 8, MaxOrdersPerPartition: 4, ExplicitEpochs: 6}
	for i := 0; i < 60; i++ {
		p := randomProblem(rng, i)
		p.Epochs = int64(1 + rng.Intn(40))
		spec := arch.Edge()
		reg := obs.NewRegistry()
		got, err := PlanContext(obs.WithMetrics(context.Background(), reg), p, spec, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the same enumeration, each candidate through refEvaluate.
		c, err := compile(p, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := opts
		full.MaxEnumeration = DefaultOptions().MaxEnumeration
		e, err := enumerate(context.Background(), p, c.index, full)
		if err != nil {
			t.Fatal(err)
		}
		refCells := obs.NewRegistry().Counter("dpipe.dp_cells")
		bestTotal, bestKey := math.Inf(1), ""
		var bestOrder []string
		for _, cand := range e.cands {
			order := make([]string, len(cand.order))
			for j, op := range cand.order {
				order[j] = c.names[op]
			}
			var first map[string]bool
			if cand.first != nil {
				first = map[string]bool{}
				for op, in := range cand.first {
					if in {
						first[c.names[op]] = true
					}
				}
			}
			r := refEvaluate(p, spec, order, first, opts.ExplicitEpochs, nil, refCells)
			if math.IsInf(r.TotalCycles, 1) || math.IsNaN(r.TotalCycles) {
				continue
			}
			if bestOrder == nil || r.TotalCycles < bestTotal || (r.TotalCycles == bestTotal && cand.key < bestKey) {
				bestTotal, bestKey, bestOrder = r.TotalCycles, cand.key, order
			}
		}
		if !sameFloat(got.TotalCycles, bestTotal) {
			t.Fatalf("case %d: plan total %v, reference %v", i, got.TotalCycles, bestTotal)
		}
		if len(got.Order) != len(bestOrder) {
			t.Fatalf("case %d: plan order %v, reference %v", i, got.Order, bestOrder)
		}
		for j := range bestOrder {
			if got.Order[j] != bestOrder[j] {
				t.Fatalf("case %d: plan order %v, reference %v", i, got.Order, bestOrder)
			}
		}
		if g, w := reg.Counter("dpipe.dp_cells").Value(), refCells.Value(); g != w {
			t.Fatalf("case %d: dp_cells %d, reference %d", i, g, w)
		}
	}
}

// The compiled form pins what the DP reads: one cycles entry per (op,
// array), predecessors and state producers as op indices.
func TestCompileTables(t *testing.T) {
	p := mhaProblem(t, 8)
	spec := arch.Cloud()
	c, err := compile(p, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.names {
		if i > 0 && c.names[i-1] >= n {
			t.Fatalf("names not sorted: %v", c.names)
		}
		for _, arr := range []perf.ArrayKind{perf.PE2D, perf.PE1D} {
			if !sameFloat(c.cycles[i][arr], p.Ops[n].Cycles(spec, arr)) {
				t.Fatalf("cycles[%s][%v] = %v, want %v", n, arr, c.cycles[i][arr], p.Ops[n].Cycles(spec, arr))
			}
		}
		preds := p.Deps.Pred(n)
		if len(preds) != len(c.preds[i]) {
			t.Fatalf("%s: preds %v, compiled %v", n, preds, c.preds[i])
		}
		for j, pred := range preds {
			if c.names[c.preds[i][j]] != pred {
				t.Fatalf("%s: preds %v, compiled %v", n, preds, c.preds[i])
			}
		}
	}
	nState := 0
	for to, froms := range c.state {
		for _, from := range froms {
			nState++
			found := false
			for _, se := range p.StateEdges {
				found = found || (se.From == c.names[from] && se.To == c.names[to])
			}
			if !found {
				t.Fatalf("compiled state edge %s->%s not in the problem", c.names[from], c.names[to])
			}
		}
	}
	if nState != len(p.StateEdges) {
		t.Fatalf("compiled %d state edges, problem has %d", nState, len(p.StateEdges))
	}
	if _, err := compile(p, spec, map[string]perf.ArrayKind{c.names[0]: 7}); err == nil {
		t.Fatal("an unknown pinned array compiled")
	}
	if _, err := TraceSchedule(p, spec, []string{"nope"}, nil, 2, nil); err == nil {
		t.Fatal("a trace over an unknown op succeeded")
	}
}
