package dpipe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// renamed returns a copy of p whose op names carry prefix: a DAG shape no
// other test plans, so its first plan is guaranteed to miss the
// process-wide candidate cache.
func renamed(p *Problem, prefix string) *Problem {
	out := &Problem{
		Name:   prefix + p.Name,
		Ops:    make(map[string]perf.OpSpec, len(p.Ops)),
		Deps:   graph.New(),
		Epochs: p.Epochs,
	}
	for n, op := range p.Ops {
		out.Ops[prefix+n] = op
	}
	for _, n := range p.Deps.Nodes() {
		out.Deps.AddNode(prefix + n)
		for _, s := range p.Deps.Succ(n) {
			out.Deps.AddEdge(prefix+n, prefix+s)
		}
	}
	for _, se := range p.StateEdges {
		out.StateEdges = append(out.StateEdges, StateEdge{From: prefix + se.From, To: prefix + se.To})
	}
	return out
}

// cacheKeyOf returns the candidate-cache key a default plan of p uses.
func cacheKeyOf(t *testing.T, p *Problem) string {
	t.Helper()
	c, err := compile(p, arch.Cloud(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return shapeKey(c, DefaultOptions())
}

// planObserved plans p under a fresh registry and records the enumeration
// counters and the progress events the plan produced.
func planObserved(t *testing.T, p *Problem, opts Options) (Result, map[string]int64, []obs.EnumerationProgress) {
	t.Helper()
	reg := obs.NewRegistry()
	var events []obs.EnumerationProgress
	opts.Progress = func(ev obs.Event) { events = append(events, ev.(obs.EnumerationProgress)) }
	res, err := PlanContext(obs.WithMetrics(context.Background(), reg), p, arch.Cloud(), opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, name := range []string{"dpipe.enumerated", "dpipe.bipartitions", "dpipe.candidates", "dpipe.dedup_skipped", "dpipe.dp_cells"} {
		counts[name] = reg.Counter(name).Value()
	}
	return res, counts, events
}

// The first plan of a shape enumerates and fills the cache; the second is
// served from it and must be indistinguishable: the same result, counters
// and progress event — with and without a warm hint on top.
func TestCandidateCacheHitMatchesMiss(t *testing.T) {
	p := renamed(mhaProblem(t, 16), "hitmiss.")
	key := cacheKeyOf(t, p)
	if cachedEnumeration(key) != nil {
		t.Fatal("fresh shape already cached")
	}
	miss, missCounts, missEvents := planObserved(t, p, DefaultOptions())
	if cachedEnumeration(key) == nil {
		t.Fatal("a complete enumeration was not cached")
	}
	ResetFronts() // an enumeration hit that still sweeps every candidate
	hit, hitCounts, hitEvents := planObserved(t, p, DefaultOptions())
	if !reflect.DeepEqual(hit, miss) {
		t.Fatalf("cached plan diverged:\nhit  %+v\nmiss %+v", hit, miss)
	}
	if !reflect.DeepEqual(hitCounts, missCounts) {
		t.Fatalf("counters diverged: hit %v, miss %v", hitCounts, missCounts)
	}
	if !reflect.DeepEqual(hitEvents, missEvents) || len(hitEvents) != 1 {
		t.Fatalf("progress diverged: hit %+v, miss %+v", hitEvents, missEvents)
	}
	if missCounts["dpipe.enumerated"] == 0 || missCounts["dpipe.bipartitions"] == 0 {
		t.Fatalf("enumeration counters empty: %v", missCounts)
	}

	// A hint that the enumeration regenerates is deduplicated against the
	// cached list exactly as against a live one.
	warm := DefaultOptions()
	warm.WarmHints = []Hint{{Order: miss.Order, First: miss.Bipartition.FirstSorted()}}
	res, counts, _ := planObserved(t, p, warm)
	if !reflect.DeepEqual(res, miss) {
		t.Fatalf("warm cached plan diverged:\nwarm %+v\ncold %+v", res, miss)
	}
	if counts["dpipe.dedup_skipped"] != 1 || counts["dpipe.candidates"] != missCounts["dpipe.candidates"] {
		t.Fatalf("hint dedup against the cache: %v (cold %v)", counts, missCounts)
	}
}

// A cached shape never hides a budget or a cancellation: a plan whose
// enumeration budget is below the full scan still fails with
// ErrBudgetExhausted, and a canceled context still returns ErrCanceled.
func TestCandidateCacheKeepsBudgetAndCancellation(t *testing.T) {
	p := renamed(mhaProblem(t, 8), "budget.")
	if _, err := Plan(p, arch.Cloud(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	e := cachedEnumeration(cacheKeyOf(t, p))
	if e == nil {
		t.Fatal("shape not cached")
	}
	opts := DefaultOptions()
	opts.MaxEnumeration = e.examined - 1
	if _, err := Plan(p, arch.Cloud(), opts); !errors.Is(err, faults.ErrBudgetExhausted) {
		t.Fatalf("budget below the full scan: err = %v, want ErrBudgetExhausted", err)
	}
	opts.MaxEnumeration = e.examined // exactly enough: served from the cache
	if _, err := Plan(p, arch.Cloud(), opts); err != nil {
		t.Fatalf("budget equal to the full scan: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PlanContext(ctx, p, arch.Cloud(), DefaultOptions())
	if !errors.Is(err, faults.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled plan of a cached shape: err = %v, want ErrCanceled", err)
	}
}

// Concurrent plans of different shapes — each planned twice, so misses,
// fills and hits interleave — return what a serial plan of the same shape
// does. Run under -race.
func TestCandidateCacheConcurrentShapes(t *testing.T) {
	const shapes = 6
	probs := make([]*Problem, shapes)
	want := make([]Result, shapes)
	for i := range probs {
		base := mhaProblem(t, 8)
		if i%2 == 1 {
			base = twoStageProblem(8)
		}
		probs[i] = renamed(base, fmt.Sprintf("conc%d.", i))
		r, err := Plan(renamed(base, fmt.Sprintf("concref%d.", i)), arch.Cloud(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*shapes)
	for round := 0; round < 2; round++ {
		for i := range probs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := PlanContext(context.Background(), probs[i], arch.Cloud(), DefaultOptions())
				if err != nil {
					errs <- err
					return
				}
				if got.TotalCycles != want[i].TotalCycles || got.Candidates != want[i].Candidates ||
					len(got.Order) != len(want[i].Order) {
					errs <- fmt.Errorf("shape %d: %+v, serial %+v", i, got, want[i])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The cache never holds more than its constant bound, evicting the oldest
// shape first.
func TestCandidateCacheBounded(t *testing.T) {
	var first string
	for i := 0; i < candidateCacheSize+5; i++ {
		p := renamed(twoStageProblem(4), fmt.Sprintf("bound%d.", i))
		if i == 0 {
			first = cacheKeyOf(t, p)
		}
		if _, err := Plan(p, arch.Cloud(), DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		candidateCache.Lock()
		n, m := len(candidateCache.entries), len(candidateCache.order)
		candidateCache.Unlock()
		if n > candidateCacheSize || n != m {
			t.Fatalf("after %d shapes the cache holds %d entries (%d in order), bound %d", i+1, n, m, candidateCacheSize)
		}
	}
	if cachedEnumeration(first) != nil {
		t.Fatal("the oldest shape survived more than a full cache of newer ones")
	}
}
