package dpipe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// refDP is an independent reference implementation of the Eq. 43–46 list
// scheduler, written directly from the equations: process instances
// epoch-major in the candidate order; each picks the array minimising its
// completion time given the array's occupancy (Eq. 43 first term) and the
// latest dependency — intra-epoch predecessors plus previous-epoch state
// edges (second term); Eq. 44 adds the latency, Eq. 45 takes the earlier
// completion with the 2D array preferred on ties, Eq. 46 commits the
// timeline. It shares no code with the compiled DP (compiled.go) beyond the
// Problem definition and OpSpec.Cycles.
func refDP(p *Problem, spec arch.Spec, order []string, epochs int) (makespan, busy1, busy2 float64) {
	avail := map[perf.ArrayKind]float64{}
	end := map[string]float64{} // "name@epoch" -> completion
	for k := 0; k < epochs; k++ {
		for _, name := range order {
			op := p.Ops[name]
			ready := 0.0
			for _, pred := range p.Deps.Pred(name) {
				if e := end[fmt.Sprintf("%s@%d", pred, k)]; e > ready {
					ready = e
				}
			}
			if k > 0 {
				for _, se := range p.StateEdges {
					if se.To == name {
						if e := end[fmt.Sprintf("%s@%d", se.From, k-1)]; e > ready {
							ready = e
						}
					}
				}
			}
			end2D := math.Max(avail[perf.PE2D], ready) + op.Cycles(spec, perf.PE2D)
			end1D := math.Max(avail[perf.PE1D], ready) + op.Cycles(spec, perf.PE1D)
			if end2D <= end1D { // ties prefer the 2D array
				avail[perf.PE2D] = end2D
				busy2 += op.Cycles(spec, perf.PE2D)
				end[fmt.Sprintf("%s@%d", name, k)] = end2D
			} else {
				avail[perf.PE1D] = end1D
				busy1 += op.Cycles(spec, perf.PE1D)
				end[fmt.Sprintf("%s@%d", name, k)] = end1D
			}
		}
	}
	for _, e := range end {
		if e > makespan {
			makespan = e
		}
	}
	return makespan, busy1, busy2
}

// randomProblem builds a small random DAG scheduling problem: 2–5 ops, each
// a random GEMM or vector map over random small extents, random forward
// edges, and an occasional cross-epoch state edge.
func randomProblem(rng *rand.Rand, caseIdx int) *Problem {
	n := 2 + rng.Intn(4)
	ops := make(map[string]perf.OpSpec, n)
	names := make([]string, n)
	deps := graph.New()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("op%d", i)
		names[i] = name
		dims := map[string]int{
			"p": 1 << (3 + rng.Intn(5)),
			"k": 1 << (3 + rng.Intn(5)),
			"q": 1 << (3 + rng.Intn(5)),
		}
		var op perf.OpSpec
		if rng.Intn(2) == 0 {
			op = perf.OpSpec{
				E:      mustParse(fmt.Sprintf("T%d = A%d[p,k] * B%d[k,q] -> [p,q]", i, i, i)),
				Dims:   dims,
				RowIdx: []string{"p"},
				ColIdx: []string{"q"},
			}
		} else {
			op = perf.OpSpec{
				E:      mustParse(fmt.Sprintf("T%d = A%d[p,q] -> [p,q]", i, i)),
				Dims:   map[string]int{"p": dims["p"], "q": dims["q"]},
				RowIdx: []string{"p"},
				ColIdx: []string{"q"},
			}
		}
		ops[name] = op
		deps.AddNode(name)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				deps.AddEdge(names[i], names[j])
			}
		}
	}
	p := &Problem{
		Name:   fmt.Sprintf("rand%d", caseIdx),
		Ops:    ops,
		Deps:   deps,
		Epochs: int64(1 + rng.Intn(5)),
	}
	if n >= 2 && rng.Intn(3) == 0 {
		// A cross-epoch recurrence from a random later op to an earlier one.
		from := names[rng.Intn(n)]
		to := names[rng.Intn(n)]
		p.StateEdges = []StateEdge{{From: from, To: to}}
	}
	return p
}

// mustEvaluateOrder evaluates one candidate with the compiled DP.
func mustEvaluateOrder(t *testing.T, p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter) Result {
	t.Helper()
	res, err := evaluateOrder(p, spec, order, first, explicitEpochs, fixedAssign, cells)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScheduleMatchesDPOracle runs ~1k seeded random problems through the
// production DP with explicitEpochs >= Epochs — the exact path, no
// extrapolation — and requires bit-identical makespan and busy counters
// against the independent reference.
func TestScheduleMatchesDPOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for i := 0; i < 500; i++ {
			p := randomProblem(rng, i)
			if err := p.Validate(); err != nil {
				t.Fatalf("case %d: generator produced invalid problem: %v", i, err)
			}
			order, err := p.Deps.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			epochs := int(p.Epochs)
			res := mustEvaluateOrder(t, p, spec, order, nil, epochs, nil, nil)
			wantMk, want1, want2 := refDP(p, spec, order, epochs)
			if res.TotalCycles != wantMk {
				t.Fatalf("%s case %d (%s): makespan %v, oracle %v", spec.Name, i, p.Name, res.TotalCycles, wantMk)
			}
			if res.Busy1D != want1 || res.Busy2D != want2 {
				t.Fatalf("%s case %d (%s): busy (%v, %v), oracle (%v, %v)",
					spec.Name, i, p.Name, res.Busy1D, res.Busy2D, want1, want2)
			}
		}
	}
}

// TestEvaluateExtrapolationBounds checks the steady-state extrapolated
// makespan on random long-running problems stays within its guaranteed
// envelope: at least the explicit window's exact makespan (epochs only add
// work), at most the fully serialised execution, and within a loose band of
// the exact DP over all epochs. Tight accuracy is asserted separately on a
// clean pipeline below — random DAGs can have periodic placement patterns
// the linear extrapolation smooths over.
func TestEvaluateExtrapolationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	spec := arch.Edge()
	const explicit = 12
	for i := 0; i < 200; i++ {
		p := randomProblem(rng, i)
		p.Epochs = int64(20 + rng.Intn(80))
		order, err := p.Deps.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		got := mustEvaluateOrder(t, p, spec, order, nil, explicit, nil, nil)
		windowMk, _, _ := refDP(p, spec, order, explicit)
		exactMk, _, _ := refDP(p, spec, order, int(p.Epochs))
		serial := p.SerialLoadCycles(spec)
		if got.TotalCycles < windowMk-1e-6 {
			t.Errorf("case %d: extrapolated %v below the %d-epoch explicit makespan %v", i, got.TotalCycles, explicit, windowMk)
		}
		if got.TotalCycles > serial*1.0001 {
			t.Errorf("case %d: makespan %v exceeds serial bound %v", i, got.TotalCycles, serial)
		}
		if rel := math.Abs(got.TotalCycles-exactMk) / exactMk; rel > 0.25 {
			t.Errorf("case %d: extrapolated %v vs exact %v (%.1f%% off)", i, got.TotalCycles, exactMk, rel*100)
		}
	}
}

// TestEvaluateExtrapolationExactOnCleanPipeline pins the extrapolation's
// accuracy where its model holds: the two-stage GEMM->vector pipeline
// reaches a linear steady state, so the 12-epoch window extrapolated to 400
// epochs must land within 1% of the exact DP over all 400.
func TestEvaluateExtrapolationExactOnCleanPipeline(t *testing.T) {
	p := twoStageProblem(400)
	spec := arch.Cloud()
	order, err := p.Deps.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	got := mustEvaluateOrder(t, p, spec, order, nil, 12, nil, nil)
	exactMk, _, _ := refDP(p, spec, order, 400)
	if rel := math.Abs(got.TotalCycles-exactMk) / exactMk; rel > 0.01 {
		t.Errorf("extrapolated makespan %v vs exact %v (%.2f%% off)", got.TotalCycles, exactMk, rel*100)
	}
	// The per-array busy split is deliberately not pinned here: on this
	// problem the greedy placement changes behaviour beyond the explicit
	// window (late epochs spill the vector op to the 1D array), which the
	// extrapolation cannot see. The exact-path oracle above covers the busy
	// accounting bit-for-bit.
}

// TestPlanDeterministicAcrossParallelismOnRandomDAGs requires the full
// search (bipartitions x orderings x DP) to pick the identical winner when a
// random problem is planned twice: cold, then from the front the first plan
// cached. The serving layer's cache keying assumes exactly this.
func TestPlanDeterministicAcrossParallelismOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	spec := arch.Cloud()
	opts := Options{MaxBipartitions: 8, MaxOrdersPerPartition: 4, ExplicitEpochs: 6}
	for i := 0; i < 100; i++ {
		p := randomProblem(rng, i)
		a, errA := Plan(p, spec, opts)
		b, errB := Plan(p, spec, opts)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("case %d: error mismatch: %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.TotalCycles != b.TotalCycles || a.Busy1D != b.Busy1D || a.Busy2D != b.Busy2D {
			t.Fatalf("case %d: repeat plan diverged: %+v vs %+v", i, a, b)
		}
		if fmt.Sprint(a.Order) != fmt.Sprint(b.Order) {
			t.Fatalf("case %d: winning order diverged: %v vs %v", i, a.Order, b.Order)
		}
	}
}
