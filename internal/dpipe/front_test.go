package dpipe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// frontCounts are the front-cache counters and DP cells of one plan.
type frontCounts struct {
	hits, misses, cells int64
}

// planFrontCounted plans p under ctx with a fresh registry and returns the result
// and the plan's front-cache counters.
func planFrontCounted(t *testing.T, ctx context.Context, p *Problem, spec arch.Spec, opts Options) (Result, frontCounts) {
	t.Helper()
	reg := obs.NewRegistry()
	res, err := PlanContext(obs.WithMetrics(ctx, reg), p, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, frontCounts{
		hits:   reg.Counter("dpipe.front_hits").Value(),
		misses: reg.Counter("dpipe.front_misses").Value(),
		cells:  reg.Counter("dpipe.dp_cells").Value(),
	}
}

// planUncached is the reference a cached plan must match: p planned on an
// empty front cache.
func planUncached(t *testing.T, p *Problem, spec arch.Spec, opts Options) (Result, frontCounts) {
	t.Helper()
	ResetFronts()
	return planFrontCounted(t, context.Background(), p, spec, opts)
}

// withEpochs returns a copy of p with a different epoch count: the same
// shape and cycles table, so the same front key whenever both counts exceed
// the explicit window.
func withEpochs(p *Problem, epochs int64) *Problem {
	q := *p
	q.Epochs = epochs
	return &q
}

// hintOf turns a plan's winner into a warm hint.
func hintOf(r Result) []Hint {
	return []Hint{{Order: r.Order, First: r.Bipartition.FirstSorted()}}
}

// sameResult fails unless got equals want bit for bit, including the
// makespan of the winner's explicit-window trace.
func sameResult(t *testing.T, where string, p *Problem, spec arch.Spec, explicit int, got, want Result) {
	t.Helper()
	if !sameFloat(got.TotalCycles, want.TotalCycles) || !sameFloat(got.Busy1D, want.Busy1D) ||
		!sameFloat(got.Busy2D, want.Busy2D) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cached plan diverged:\ngot  %+v\nwant %+v", where, got, want)
	}
	if got.Order == nil {
		return
	}
	k := explicit
	if int64(k) > p.Epochs {
		k = int(p.Epochs)
	}
	gt, err := TraceSchedule(p, spec, got.Order, got.Bipartition.First, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := TraceSchedule(p, spec, want.Order, want.Bipartition.First, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloat(gt.Makespan, wt.Makespan) {
		t.Fatalf("%s: trace makespan %v, uncached %v", where, gt.Makespan, wt.Makespan)
	}
}

// coldTotals sweeps every enumerated candidate of p cold and returns their
// totals.
func coldTotals(t *testing.T, p *Problem, spec arch.Spec, opts Options) []float64 {
	t.Helper()
	c, err := compile(p, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enumerate(context.Background(), p, c.index, opts)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, len(e.cands))
	for i, cand := range e.cands {
		totals[i] = c.evaluate(&scratch{}, cand.order, cand.first, opts.ExplicitEpochs, nil, nil).total
	}
	return totals
}

// tieProblem has two identical independent vector ops, so mirrored
// candidates tie exactly and the canonical key decides.
func tieProblem(epochs int64) *Problem {
	op := func(name string) perf.OpSpec {
		return perf.OpSpec{
			E:      einsum.Map(name, []string{"p", "q"}, einsum.ExpSub, einsum.In("G", "p", "q"), einsum.In("M", "p")),
			Dims:   map[string]int{"p": 64, "q": 64},
			RowIdx: []string{"p"},
			ColIdx: []string{"q"},
		}
	}
	deps := graph.New()
	deps.AddNode("X")
	deps.AddNode("Y")
	return &Problem{
		Name:   "tie",
		Ops:    map[string]perf.OpSpec{"X": op("X"), "Y": op("Y")},
		Deps:   deps,
		Epochs: epochs,
	}
}

// recurrenceProblem feeds V's previous epoch back into G, so the
// bipartition candidate that places G before V in a pass cannot schedule.
func recurrenceProblem(epochs int64) *Problem {
	p := twoStageProblem(epochs)
	p.StateEdges = []StateEdge{{From: "V", To: "G"}}
	return p
}

// A plan served from a front equals the uncached plan bit for bit, at every
// epoch count and whichever plan filled the front, cold or warm; a front a
// warm plan filled is hit by the plans after it. The cases cover both sides
// of the explicit window, candidates that total +Inf or NaN, and exact ties
// broken by key.
func TestFrontHitMatchesMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := Options{MaxBipartitions: 8, MaxOrdersPerPartition: 4, ExplicitEpochs: 6, Parallelism: 1}
	epochs := []int64{1, 3, 6, 7, 12, 97, 4096, 1 << 20}
	var hits, warmFilledHits, unschedulable, ties int
	for i := 0; i < 48; i++ {
		base := randomProblem(rng, i)
		switch i % 8 {
		case 0:
			base = tieProblem(1)
		case 4:
			base = recurrenceProblem(1)
		}
		spec := arch.Cloud()
		if i%2 == 1 {
			spec = arch.Edge()
		}
		want := make(map[int64]Result, len(epochs))
		for _, e := range epochs {
			p := withEpochs(base, e)
			r, n := planUncached(t, p, spec, opts)
			if n.misses != 1 || n.hits != 0 {
				t.Fatalf("case %d epochs %d: an uncached plan counted %+v", i, e, n)
			}
			want[e] = r
			totals := coldTotals(t, p, spec, opts)
			best, count := math.Inf(1), 0
			for _, tot := range totals {
				switch {
				case math.IsInf(tot, 1) || math.IsNaN(tot):
					unschedulable++
				case tot < best:
					best, count = tot, 1
				case tot == best:
					count++
				}
			}
			if count > 1 {
				ties++
			}
		}

		fills := []struct {
			name string
			opts Options
		}{{"cold fill", opts}}
		if w := want[97]; w.Order != nil {
			warm := opts
			warm.WarmHints = hintOf(w)
			fills = append(fills, struct {
				name string
				opts Options
			}{"warm fill", warm})
		}
		for _, fill := range fills {
			ResetFronts()
			for _, e := range []int64{97, 1} {
				got, _ := planFrontCounted(t, context.Background(), withEpochs(base, e), spec, fill.opts)
				sameResult(t, fmt.Sprintf("case %d %s epochs %d", i, fill.name, e), withEpochs(base, e), spec, opts.ExplicitEpochs, got, want[e])
			}
			for round := 0; round < 2; round++ {
				for _, j := range rng.Perm(len(epochs)) {
					e := epochs[j]
					p := withEpochs(base, e)
					o := opts
					if round == 1 && want[e].Order != nil {
						o.WarmHints = hintOf(want[e])
					}
					got, n := planFrontCounted(t, context.Background(), p, spec, o)
					sameResult(t, fmt.Sprintf("case %d %s round %d epochs %d", i, fill.name, round, e), p, spec, opts.ExplicitEpochs, got, want[e])
					if n.hits+n.misses != 1 {
						t.Fatalf("case %d: one plan counted %+v", i, n)
					}
					hits += int(n.hits)
					if fill.name == "warm fill" {
						warmFilledHits += int(n.hits)
					}
				}
			}
		}
	}
	if hits == 0 || warmFilledHits == 0 || unschedulable == 0 || ties == 0 {
		t.Fatalf("coverage: %d hits, %d on warm-filled fronts, %d unschedulable candidates, %d exact ties", hits, warmFilledHits, unschedulable, ties)
	}
}

// Concurrent plans of several shapes and epoch counts, racing fills, hits
// and resets of the front cache, return the uncached plans. Run under -race.
func TestFrontConcurrentShapes(t *testing.T) {
	const shapes = 4
	epochs := []int64{2, 24, 96}
	type job struct {
		p    *Problem
		want Result
	}
	var jobs []job
	for i := 0; i < shapes; i++ {
		base := mhaProblem(t, 1)
		if i%2 == 1 {
			base = twoStageProblem(1)
		}
		base = renamed(base, fmt.Sprintf("fconc%d.", i))
		for _, e := range epochs {
			p := withEpochs(base, e)
			want, _ := planUncached(t, p, arch.Cloud(), DefaultOptions())
			jobs = append(jobs, job{p, want})
		}
	}
	ResetFronts()
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(jobs))
	for round := 0; round < 3; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				opts := DefaultOptions()
				opts.Parallelism = 2
				got, err := PlanContext(context.Background(), j.p, arch.Cloud(), opts)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					errs <- fmt.Errorf("%s epochs %d: %+v, uncached %+v", j.p.Name, j.p.Epochs, got, j.want)
				}
			}(j)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			ResetFronts()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A plan's front lands in its shape's cached enumeration, which holds at
// most frontsPerShape keys, evicting the oldest first and replacing a
// stored key in place.
func TestFrontCacheBounded(t *testing.T) {
	p := renamed(twoStageProblem(40), "fbound.")
	ResetFronts()
	if _, err := Plan(p, arch.Cloud(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	e := cachedEnumeration(cacheKeyOf(t, p))
	if e == nil {
		t.Fatal("shape not cached")
	}
	c, err := compile(p, arch.Cloud(), nil)
	if err != nil {
		t.Fatal(err)
	}
	k, exact := c.window(DefaultOptions().ExplicitEpochs)
	if e.cachedFront(c.frontKey(nil, k, exact)) == nil {
		t.Fatal("the plan stored no front under its key")
	}

	f, g := &front{}, &front{}
	for i := 0; i < frontsPerShape+5; i++ {
		e.storeFront([]byte(fmt.Sprint("key", i)), f)
		e.mu.Lock()
		n, m := len(e.fronts), len(e.frontKeys)
		e.mu.Unlock()
		if n > frontsPerShape || n != m {
			t.Fatalf("after %d stores the shape holds %d fronts (%d in order), bound %d", i+1, n, m, frontsPerShape)
		}
	}
	for i := 0; i < 5; i++ {
		if e.cachedFront([]byte(fmt.Sprint("key", i))) != nil {
			t.Fatalf("key%d survived a full shape of newer keys", i)
		}
	}
	last := []byte(fmt.Sprint("key", frontsPerShape+4))
	e.storeFront(last, g)
	if e.cachedFront(last) != g || len(e.frontKeys) != frontsPerShape {
		t.Fatal("storing a held key did not replace it in place")
	}
}

// Hinted plans read the front a cold plan left, and the bypasses never
// touch it: a fault injector on ctx sweeps live, an enumeration budget
// below the full scan still fails with ErrBudgetExhausted, and a canceled
// context still returns ErrCanceled.
func TestFrontBypasses(t *testing.T) {
	p := renamed(mhaProblem(t, 48), "fbypass.")
	spec := arch.Cloud()
	want, cold := planUncached(t, p, spec, DefaultOptions())
	e := cachedEnumeration(cacheKeyOf(t, p))
	c, err := compile(p, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, exact := c.window(DefaultOptions().ExplicitEpochs)
	key := c.frontKey(nil, k, exact)
	stored := e.cachedFront(key)
	if stored == nil {
		t.Fatal("the cold plan stored no front")
	}

	warm := DefaultOptions()
	warm.WarmHints = hintOf(want)
	got, n := planFrontCounted(t, context.Background(), p, spec, warm)
	sameResult(t, "warm hint", p, spec, warm.ExplicitEpochs, got, want)
	if n.hits != 1 || n.cells >= cold.cells {
		t.Fatalf("warm hint on a stored front: %+v, cold plan %+v", n, cold)
	}

	inj, err := chaos.Parse("dpipe.candidate=latency:1ns@p=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, n = planFrontCounted(t, chaos.With(context.Background(), inj), p, spec, DefaultOptions())
	sameResult(t, "chaos", p, spec, DefaultOptions().ExplicitEpochs, got, want)
	if n.hits != 0 || n.misses != 0 || n.cells != cold.cells {
		t.Fatalf("chaos plan used the front cache: %+v, cold plan %+v", n, cold)
	}
	if inj.Hits(chaos.SiteDPipeCandidate) != int64(want.Candidates) {
		t.Fatalf("chaos site struck %d times, want once per candidate (%d)", inj.Hits(chaos.SiteDPipeCandidate), want.Candidates)
	}

	budget := DefaultOptions()
	budget.MaxEnumeration = e.examined - 1
	if _, err := Plan(p, spec, budget); !errors.Is(err, faults.ErrBudgetExhausted) {
		t.Fatalf("budget below the full scan with a stored front: err = %v, want ErrBudgetExhausted", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanContext(ctx, p, spec, DefaultOptions()); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("canceled plan with a stored front: err = %v, want ErrCanceled", err)
	}
	if e.cachedFront(key) != stored {
		t.Fatal("a bypassed plan replaced the stored front")
	}
}

// Every plan that reaches candidate evaluation counts as exactly one front
// hit or miss, except the chaos plans that bypass the cache.
func TestFrontCountersAddUp(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	inj, err := chaos.Parse("dpipe.candidate=latency:1ns@p=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := renamed(mhaProblem(t, 1), "fcount.")
	ResetFronts()
	bypassed := int64(0)
	for i, e := range []int64{4, 12, 30, 90, 30, 4} {
		p := withEpochs(base, e)
		planCtx := ctx
		if i%3 == 2 {
			planCtx = chaos.With(ctx, inj)
			bypassed++
		}
		r, err := PlanContext(planCtx, p, arch.Cloud(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.WarmHints = hintOf(r)
		if _, err := PlanContext(ctx, withEpochs(base, 2*e), arch.Cloud(), opts); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := reg.Counter("dpipe.front_hits").Value(), reg.Counter("dpipe.front_misses").Value()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got %d and %d", hits, misses)
	}
	if plans := reg.Counter("dpipe.plans").Value(); hits+misses+bypassed != plans {
		t.Fatalf("front hits %d + misses %d + bypassed %d != dpipe.plans %d", hits, misses, bypassed, plans)
	}
}

// A shape with a single candidate keeps no front: each of its plans, warm
// or cold, at any epoch count, is one front miss that sweeps that candidate
// once, and the result equals an uncached plan.
func TestFrontSkipsSingleCandidateShapes(t *testing.T) {
	gemm := gemmFixed("fsingle.G", 64)
	deps := graph.New()
	deps.AddNode("fsingle.G")
	base := &Problem{Name: "fsingle", Ops: map[string]perf.OpSpec{"fsingle.G": gemm}, Deps: deps, Epochs: 4}
	spec := arch.Cloud()
	want, _ := planUncached(t, base, spec, DefaultOptions())
	if want.Candidates != 1 {
		t.Fatalf("single-op problem has %d candidates, want 1", want.Candidates)
	}
	e := cachedEnumeration(cacheKeyOf(t, base))
	for _, epochs := range []int64{4, 30, 90, 4} {
		p := withEpochs(base, epochs)
		for _, opts := range []Options{DefaultOptions(), {MaxBipartitions: 64, MaxOrdersPerPartition: 12, ExplicitEpochs: 12, WarmHints: hintOf(want)}} {
			got, n := planFrontCounted(t, context.Background(), p, spec, opts)
			ref, uncached := planUncached(t, p, spec, DefaultOptions())
			sameResult(t, fmt.Sprintf("epochs %d, %d hints", epochs, len(opts.WarmHints)), p, spec, opts.ExplicitEpochs, got, ref)
			if n.hits != 0 || n.misses != 1 || n.cells != uncached.cells {
				t.Fatalf("epochs %d, %d hints: %+v, want one miss sweeping what an uncached plan sweeps (%+v)", epochs, len(opts.WarmHints), n, uncached)
			}
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.fronts) != 0 {
		t.Fatalf("a single-candidate shape stored %d fronts", len(e.fronts))
	}
}

// newFront keeps exactly the candidates that can win at some epoch count.
// The key check matters: totals that differ in exact arithmetic can round
// to a tie, which the smaller key then wins.
func TestFrontDominance(t *testing.T) {
	cands := []candidate{{key: "b"}, {key: "a"}, {key: "c"}, {key: "d"}}
	inf := math.Inf(1)
	// At rest 2^53, mkAll 0 and 1 with slope 1 both total 2^53.
	if extrapolated(0, 1, 1<<53) != extrapolated(1, 1, 1<<53) {
		t.Fatal("the rounding tie this test relies on is gone")
	}
	for _, tc := range []struct {
		name    string
		results []outcome
		entries []int
	}{
		{"rounding tie keeps the smaller key", []outcome{{mkAll: 0, slope: 1}, {mkAll: 1, slope: 1}, {mkAll: inf}, {mkAll: 1, slope: 2}}, []int{0, 1}},
		{"a smaller key dominates", []outcome{{mkAll: 1, slope: 1}, {mkAll: 0, slope: 1}, {mkAll: 2, slope: 2}, {mkAll: math.NaN()}}, []int{1}},
		{"a smaller slope survives", []outcome{{mkAll: 0, slope: 2}, {mkAll: 1, slope: 1}, {mkAll: 2, slope: inf}, {mkAll: 3, slope: 0}}, []int{0, 1, 3}},
	} {
		f := newFront(cands, tc.results)
		var got []int
		for _, e := range f.entries {
			got = append(got, e.cand)
			if r := tc.results[e.cand]; e.mkAll != r.mkAll || e.slope != r.slope {
				t.Fatalf("%s: entry %+v does not carry its candidate's figures %+v", tc.name, e, r)
			}
		}
		if !reflect.DeepEqual(got, tc.entries) {
			t.Fatalf("%s: entries %v, want %v", tc.name, got, tc.entries)
		}
	}
}
