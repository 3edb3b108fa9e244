package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/store"
	"github.com/fusedmindlab/transfusion/internal/tileseek"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// The in-process replay calls each layer's public functions on the
// workload's inputs, at Parallelism 1 so its counts repeat exactly.
const (
	storeGets     = 1000 // enough for a p99 with minBeyond samples above it
	storeNearests = 200
	storePuts     = 20
	cyclesReps    = 200
	ownerReps     = 5
)

// searchReplay accumulates the search-stack layers over the replayed specs.
type searchReplay struct {
	specs     int
	runMS     []float64
	allocs    int64
	objCalls  int
	cells     int64
	cands     int64
	plans     int64
	cyclesNS  float64
	cyclesAlc float64
}

// replaySearch evaluates req through the public entry point, then again
// rebuilt from the layers' own calls — heuristic seed, tileseek over an
// objective wrapping EvaluateWithTileContext, final evaluation of the
// winner — and fails unless the rebuilt winner is daemonTile. It then plans
// every sub-layer of the winning tile with DPipe and costs every op.
func replaySearch(ctx context.Context, tr *tracer, req *request, pos int64, hint *transfusion.PlanSummary, daemonTile string, st *searchReplay) error {
	spec := req.spec
	a, err := arch.ByName(spec.Arch)
	if err != nil {
		return err
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		return err
	}
	sys, err := pipeline.SystemByName(spec.System)
	if err != nil {
		return err
	}
	w := pipeline.Workload{Model: m, SeqLen: spec.SeqLen, Batch: model.EvalBatch, Causal: spec.Causal}
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = spec.SearchBudget
	opts.Parallelism = 1
	opts.WarmHint = pipelineHint(hint)

	rs := spec
	rs.Parallelism = 1
	rs.WarmHint = hint
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.start("api.run", 0, pos)
	if _, err := transfusion.RunContext(ctx, rs); err != nil {
		return fmt.Errorf("replaying %s: %w", req.key, err)
	}
	sp = tr.finish(sp)
	runtime.ReadMemStats(&m1)
	st.runMS = append(st.runMS, ms(sp.dur()))
	st.allocs += int64(m1.Mallocs - m0.Mallocs)

	root := tr.start("replay", 0, pos)
	eval := func(parent int64, tile tiling.Config) (float64, bool) {
		sp := tr.start("pipeline.eval", parent, pos)
		r, err := pipeline.EvaluateWithTileContext(ctx, w, a, sys, tile, opts)
		tr.finish(sp)
		if err != nil {
			return 0, false
		}
		return r.TotalCycles * r.Energy.Total(), true
	}
	best, herr := tiling.HeuristicTile(w, a)
	bestCost := math.Inf(1)
	if herr == nil {
		if c, ok := eval(root.ID, best); ok {
			bestCost = c
		}
	}
	tsOpts := tileseek.Options{Iterations: opts.TileSeekIterations, Seed: opts.TileSeekSeed, Parallelism: 1}
	if opts.WarmHint != nil {
		// The pipeline's warm budget: a quarter of the cold one, at least 4.
		tile := opts.WarmHint.Tile
		tsOpts.Hint = &tile
		if it := opts.TileSeekIterations / 4; it < tsOpts.Iterations {
			tsOpts.Iterations = max(it, 4)
		}
	}
	search := tr.start("tileseek.search", root.ID, pos)
	res, serr := tileseek.SearchWithOptions(ctx, tileseek.DefaultSpace(w, a), func(c tiling.Config) (float64, bool) {
		st.objCalls++
		return eval(search.ID, c)
	}, tsOpts)
	tr.finish(search)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if res.Found && res.BestCost < bestCost {
		best = res.Best
	} else if herr != nil {
		return fmt.Errorf("replaying %s: no tile: %v, %v", req.key, serr, herr)
	}
	eval(root.ID, best)
	tr.finish(root)
	if best.String() != daemonTile {
		return fmt.Errorf("replay of %s chose %s, the daemon %s", req.key, best, daemonTile)
	}
	st.specs++

	probs, err := pipeline.BuildProblems(w, a, sys, best)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(probs))
	for n := range probs {
		names = append(names, n)
	}
	sort.Strings(names)
	reg := obs.NewRegistry()
	dctx := obs.WithMetrics(ctx, reg)
	var ops []perf.OpSpec
	for _, n := range names {
		dopts := dpipe.DefaultOptions()
		dopts.Parallelism = 1
		if opts.WarmHint != nil {
			if lh, ok := opts.WarmHint.Layers[n]; ok && len(lh.Order) > 0 {
				dopts.WarmHints = []dpipe.Hint{{Order: lh.Order, First: lh.First}}
			}
		}
		sp := tr.start("dpipe.plan", 0, pos)
		_, err := dpipe.PlanContext(dctx, probs[n], a, dopts)
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("planning %s of %s: %w", n, req.key, err)
		}
		opNames := make([]string, 0, len(probs[n].Ops))
		for o := range probs[n].Ops {
			opNames = append(opNames, o)
		}
		sort.Strings(opNames)
		for _, o := range opNames {
			ops = append(ops, probs[n].Ops[o])
		}
	}
	st.cells += reg.Counter("dpipe.dp_cells").Value()
	st.cands += reg.Counter("dpipe.candidates").Value()
	st.plans += reg.Counter("dpipe.plans").Value()

	sink := 0.0
	runtime.ReadMemStats(&m0)
	sp = tr.start("perf.cycles", 0, pos)
	for r := 0; r < cyclesReps; r++ {
		for _, op := range ops {
			sink += op.Cycles(a, perf.PE2D) + op.Cycles(a, perf.PE1D)
		}
	}
	sp = tr.finish(sp)
	runtime.ReadMemStats(&m1)
	calls := float64(cyclesReps * len(ops) * 2)
	st.cyclesNS += float64(sp.dur().Nanoseconds()) / calls
	st.cyclesAlc += float64(m1.Mallocs-m0.Mallocs) / calls
	if math.IsNaN(sink) {
		return fmt.Errorf("op cycles of %s are NaN", req.key)
	}
	return nil
}

// pipelineHint converts a stored plan summary into the engine's hint.
func pipelineHint(p *transfusion.PlanSummary) *pipeline.WarmHint {
	if p == nil {
		return nil
	}
	h := &pipeline.WarmHint{
		Tile:   tiling.Config{B: p.TileB, D: p.TileD, P: p.TileP, M0: p.TileM0, M1: p.TileM1, S: p.TileS},
		Layers: make(map[string]pipeline.LayerPlan, len(p.Layers)),
	}
	for n, lp := range p.Layers {
		h.Layers[n] = pipeline.LayerPlan{Order: lp.Order, First: lp.First, Epochs: lp.Epochs}
	}
	return h
}

// storeReplay holds the store layer's timings.
type storeReplay struct {
	openMS, getUS, nearestUS, putMS []float64
}

// keyResult is a plan the store replay writes back.
type keyResult struct {
	key string
	res transfusion.RunResult
}

// replayStore opens a copy of the template store at dir and replays the
// workload's keys: Nearest for each request key, Get for the keys the
// request path reads (getKeys, or the neighbours Nearest found when there
// are none), and Put for puts.
func replayStore(ctx context.Context, tr *tracer, c *corpus, dir string, reqKeys, getKeys []string, puts []keyResult) (storeReplay, error) {
	var out storeReplay
	if err := c.copyTo(dir, func(string) bool { return true }); err != nil {
		return out, err
	}
	var st *store.Store
	for i := 0; i < 3; i++ {
		sp := tr.start("store.open", 0, -1)
		s, err := store.Open(dir, 0, nil)
		sp = tr.finish(sp)
		if err != nil {
			return out, err
		}
		st = s
		out.openMS = append(out.openMS, ms(sp.dur()))
	}
	var found []string
	for i := 0; i < storeNearests; i++ {
		k := reqKeys[i%len(reqKeys)]
		sp := tr.start("store.nearest", 0, -1)
		ne, ok := st.Nearest(ctx, k)
		sp = tr.finish(sp)
		out.nearestUS = append(out.nearestUS, us(sp.dur()))
		if ok && i < len(reqKeys) {
			found = append(found, ne.Key)
		}
	}
	if len(getKeys) == 0 {
		getKeys = found
	}
	if len(getKeys) == 0 || len(puts) == 0 {
		return out, fmt.Errorf("store replay: %d keys to read and %d plans to write", len(getKeys), len(puts))
	}
	for i := 0; i < storeGets; i++ {
		sp := tr.start("store.get", 0, -1)
		_, ok := st.Get(ctx, getKeys[i%len(getKeys)])
		sp = tr.finish(sp)
		if !ok {
			return out, fmt.Errorf("store replay: %s missing", getKeys[i%len(getKeys)])
		}
		out.getUS = append(out.getUS, us(sp.dur()))
	}
	for i := 0; i < storePuts; i++ {
		p := puts[i%len(puts)]
		sp := tr.start("store.put", 0, -1)
		err := st.Put(ctx, p.key, p.res)
		sp = tr.finish(sp)
		if err != nil {
			return out, err
		}
		out.putMS = append(out.putMS, ms(sp.dur()))
	}
	return out, nil
}

// ownerNS times Cluster.Owner over keys on the cluster-zipf ring, in ns per
// call (the median of ownerReps passes).
func ownerNS(keys []string) (float64, error) {
	w, _ := workloadByName("cluster-zipf")
	urls := clusterURLs(w.replicas)
	cl, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls})
	if err != nil {
		return 0, err
	}
	var per []float64
	for r := 0; r < ownerReps; r++ {
		t := time.Now()
		for _, k := range keys {
			cl.Owner(k)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(keys)))
	}
	return median(per), nil
}

// clusterURLs are the base URLs of n replicas on the fixed cluster ports.
func clusterURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", clusterBasePort+i)
	}
	return urls
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
