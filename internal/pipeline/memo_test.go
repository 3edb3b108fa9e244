package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// memoTiles is a small tile space over a 1K-token BERT workload: every
// combination of two or three values per tile field, so tiles share some
// sub-layer problems and differ in others.
func memoTiles() []tiling.Config {
	var tiles []tiling.Config
	for _, b := range []int{1, 4} {
		for _, d := range []int{256, 768} {
			for _, p := range []int{64, 256, 1024} {
				for _, m0 := range []int{64, 256} {
					for _, s := range []int{768, 3072} {
						tiles = append(tiles, tiling.Config{B: b, D: d, P: p, M1: 2, M0: m0, S: s})
					}
				}
			}
		}
	}
	return tiles
}

type memoCase struct {
	name string
	w    Workload
	sys  System
	opts Options
}

// memoCases covers every system, causal and bidirectional attention, and
// TransFusion with and without a warm hint taken from another tile's plans,
// under the default DPipe caps and under caps so tight that the hint is a
// candidate the enumeration lacks.
func memoCases(t *testing.T, spec arch.Spec) []memoCase {
	t.Helper()
	tight := dpipe.DefaultOptions()
	tight.MaxBipartitions, tight.MaxOrdersPerPartition = 1, 1
	var cases []memoCase
	for _, causal := range []bool{false, true} {
		w := bertWorkload(1024)
		w.Causal = causal
		for _, sys := range AllSystems() {
			cases = append(cases, memoCase{sys.Name, w, sys, DefaultOptions()})
		}
		hintTile := tiling.Config{B: 2, D: 384, P: 512, M1: 4, M0: 128, S: 1536}
		r, err := EvaluateWithTile(w, spec, TransFusion(), hintTile, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		hinted := DefaultOptions()
		hinted.WarmHint = &WarmHint{Tile: r.Tile, Layers: r.Plans}
		cases = append(cases, memoCase{"transfusion+hint", w, TransFusion(), hinted})
		tightOpts := DefaultOptions()
		tightOpts.DPipe = tight
		cases = append(cases, memoCase{"transfusion/tight", w, TransFusion(), tightOpts})
		tightOpts.WarmHint = hinted.WarmHint
		cases = append(cases, memoCase{"transfusion/tight+hint", w, TransFusion(), tightOpts})
	}
	return cases
}

// A memoised schedule is the schedule a fresh plan computes: over every tile
// of a small space and every case, results read from one memo that the
// cases and tiles fill as they go, and from that memo once primed, are
// deeply equal to results computed on an empty memo and front cache. The
// cases share the memo, so a key that misses what tells two of them apart
// shows as a wrong result.
func TestMemoBitIdentical(t *testing.T) {
	spec := arch.Cloud()
	tiles := memoTiles()
	cases := memoCases(t, spec)
	type outcome struct {
		res Result
		ok  bool
	}
	eval := func(c memoCase, tile tiling.Config) outcome {
		r, err := EvaluateWithTile(c.w, spec, c.sys, tile, c.opts)
		return outcome{r, err == nil}
	}
	fresh := make([][]outcome, len(cases))
	for k, c := range cases {
		fresh[k] = make([]outcome, len(tiles))
		feasible := 0
		for i, tile := range tiles {
			ResetSchedules()
			fresh[k][i] = eval(c, tile)
			if fresh[k][i].ok {
				feasible++
			}
		}
		if feasible < len(tiles)/2 {
			t.Fatalf("%s causal=%v: only %d of %d tiles evaluate", c.name, c.w.Causal, feasible, len(tiles))
		}
	}
	hintMatters := false
	for k, c := range cases {
		if c.name == "transfusion/tight+hint" && !reflect.DeepEqual(fresh[k], fresh[k-1]) {
			hintMatters = true
		}
	}
	if !hintMatters {
		t.Fatal("the warm hint changes no tight-caps result; the hint cases test nothing")
	}
	check := func(pass string, i int) {
		for k, c := range cases {
			if got := eval(c, tiles[i]); !reflect.DeepEqual(got, fresh[k][i]) {
				t.Fatalf("%s causal=%v tile %v: %s memo gives %+v, fresh %+v", c.name, c.w.Causal, tiles[i], pass, got, fresh[k][i])
			}
		}
	}
	ResetSchedules()
	for i := range tiles {
		check("filling", i)
	}
	for i := len(tiles) - 1; i >= 0; i-- {
		check("primed", i)
	}
}

// A Result owns its Plans: editing a returned plan in place changes no later
// result, whether the plan came from a fresh schedule or the memo.
func TestMemoPlansDoNotAlias(t *testing.T) {
	spec := arch.Cloud()
	w := bertWorkload(1024)
	tile := tiling.Config{B: 1, D: 768, P: 256, M1: 2, M0: 256, S: 3072}
	ResetSchedules()
	want, err := EvaluateWithTile(w, spec, TransFusion(), tile, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(r Result) {
		for _, p := range r.Plans {
			for i := range p.Order {
				p.Order[i] = "scribbled"
			}
			for i := range p.First {
				p.First[i] = "scribbled"
			}
		}
	}
	ResetSchedules()
	first, err := EvaluateWithTile(w, spec, TransFusion(), tile, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scribble(first) // the plans that filled the memo
	hit, err := EvaluateWithTile(w, spec, TransFusion(), tile, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scribble(hit) // plans read from the memo
	again, err := EvaluateWithTile(w, spec, TransFusion(), tile, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("after editing returned plans: %+v, want %+v", again.Plans, want.Plans)
	}
}

// Concurrent evaluations share the memo safely (run under -race) and each
// gets the result a serial evaluation does.
func TestMemoConcurrentEvaluations(t *testing.T) {
	spec := arch.Cloud()
	w := bertWorkload(1024)
	tiles := memoTiles()
	want := make([]Result, len(tiles))
	ok := make([]bool, len(tiles))
	for i, tile := range tiles {
		r, err := EvaluateWithTile(w, spec, TransFusion(), tile, DefaultOptions())
		want[i], ok[i] = r, err == nil
	}
	ResetSchedules()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range tiles {
				i := (k + g*len(tiles)/workers) % len(tiles) // overlapping walks
				r, err := EvaluateWithTile(w, spec, TransFusion(), tiles[i], DefaultOptions())
				if (err == nil) != ok[i] || !reflect.DeepEqual(r, want[i]) {
					errs <- tiles[i].String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for tile := range errs {
		t.Errorf("concurrent evaluation of %s differs from the serial one", tile)
	}
}

// Every tile evaluation reads its five sub-layer schedules through the memo,
// each one hit or miss, and every miss of a DPipe-scheduled sub-layer runs
// exactly one DPipe plan. Under a chaos injector the memo is bypassed.
func TestMemoCountsReconcile(t *testing.T) {
	spec := arch.Cloud()
	w := bertWorkload(1024)
	tiles := memoTiles()
	for _, sys := range []System{TransFusion(), FuseMax(), Unfused()} {
		ResetSchedules()
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		evaluated := int64(0)
		for _, tile := range tiles {
			if _, err := EvaluateWithTileContext(ctx, w, spec, sys, tile, DefaultOptions()); err == nil {
				evaluated++
			}
		}
		hits, misses := reg.Counter("pipeline.memo_hits").Value(), reg.Counter("pipeline.memo_misses").Value()
		plans := reg.Counter("dpipe.plans").Value()
		if hits+misses != int64(numSubLayers)*evaluated {
			t.Errorf("%s: %d hits + %d misses over %d evaluations, want %d per evaluation", sys.Name, hits, misses, evaluated, numSubLayers)
		}
		if hits == 0 || misses == 0 {
			t.Errorf("%s: degenerate memo counts: %d hits, %d misses", sys.Name, hits, misses)
		}
		wantPlans := int64(0)
		if sys.AttentionScheduler == SchedDPipe && sys.OtherScheduler == SchedDPipe {
			wantPlans = misses
		}
		if plans != wantPlans {
			t.Errorf("%s: %d DPipe plans for %d memo misses, want %d", sys.Name, plans, misses, wantPlans)
		}
	}

	in, err := chaos.New(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := chaos.With(obs.WithMetrics(context.Background(), reg), in)
	want, err := EvaluateWithTile(w, spec, TransFusion(), tiles[0], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateWithTileContext(ctx, w, spec, TransFusion(), tiles[0], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos-bypassed evaluation differs from the memoised one")
	}
	if n := reg.Counter("pipeline.memo_hits").Value() + reg.Counter("pipeline.memo_misses").Value(); n != 0 {
		t.Fatalf("a chaos run read the memo %d times", n)
	}
	if reg.Counter("dpipe.plans").Value() != int64(numSubLayers) {
		t.Fatalf("a chaos run planned %d sub-layers, want all %d", reg.Counter("dpipe.plans").Value(), numSubLayers)
	}
}

// The memo holds at most scheduleMemoSize entries and evicts the oldest
// first; interned ids are never reused across a reset.
func TestMemoBoundedOldestFirst(t *testing.T) {
	ResetSchedules()
	defer ResetSchedules()
	key := func(i int) memoKey { return memoKey{ctx: 1, reads: [3]int{i}} }
	const extra = 10
	for i := 0; i < scheduleMemoSize+extra; i++ {
		storeSchedule(key(i), schedule{cycles: float64(i)}, []string{"op"})
	}
	if n := len(scheduleMemo.index); n != scheduleMemoSize {
		t.Fatalf("memo holds %d entries, want the bound %d", n, scheduleMemoSize)
	}
	for i := 0; i < scheduleMemoSize+extra; i++ {
		s, _, ok := lookupSchedule(key(i))
		if want := i >= extra; ok != want || (ok && s.cycles != float64(i)) {
			t.Fatalf("entry %d: present=%v (cycles %v), want present=%v", i, ok, s.cycles, want)
		}
	}
	c := memoContext{caps: [4]int{1, 2, 3, 4}}
	id := internContext(c)
	ResetSchedules()
	if again := internContext(c); again == id {
		t.Fatalf("context id %d reused after a reset", id)
	}
}
