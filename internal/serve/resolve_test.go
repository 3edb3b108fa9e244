package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	transfusion "github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// The exact tiers answer before the degradation ladder: a full-fidelity plan
// already in the store is served from disk at any queue pressure — no
// Served-Degraded header, no serve.degraded.* increment, no search — instead
// of a budget- or heuristic-degraded plan computed in its place.
func TestExactTiersAnswerBeforeLadder(t *testing.T) {
	dir := t.TempDir()
	sA, tsA, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody)
	stored, _ := planSource(t, resp, data)
	sA.fills.Wait()

	// The budget tier (which would cut the request's budget of 8 to 4), then
	// the heuristic tier.
	for _, queued := range []int64{4, 8} {
		s, ts, reg := storeTestServer(t, Config{MaxQueue: 8, ReducedBudget: 4, WatchdogTimeout: -1}, dir, true, "")
		s.adm.queued.Store(queued)
		spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 8}
		if _, mode := s.applyLadder(spec); mode == "" {
			t.Fatalf("queued=%d: ladder not engaged", queued)
		}
		resp, data := post(t, ts.URL+"/v1/plan", searchPlanBody)
		s.adm.queued.Store(0)
		pr, source := planSource(t, resp, data)
		if source != sourceDisk {
			t.Errorf("queued=%d: served from %q, want %q", queued, source, sourceDisk)
		}
		if h := resp.Header.Get("Served-Degraded"); h != "" {
			t.Errorf("queued=%d: Served-Degraded = %q on a stored full-fidelity plan", queued, h)
		}
		if n := degradedCounterSum(reg); n != 0 {
			t.Errorf("queued=%d: serve.degraded.* sum = %d, want 0", queued, n)
		}
		// The body's TileSearchEvals is the stored search's count; that no
		// search ran here shows in the server's own counters.
		if n := reg.Counter("tileseek.evaluated").Value(); n != 0 {
			t.Errorf("queued=%d: the server ran %d tile-search evaluations, want 0", queued, n)
		}
		if n := reg.Counter("serve.cache_misses").Value(); n != 0 {
			t.Errorf("queued=%d: %d evaluations started, want 0", queued, n)
		}
		if !reflect.DeepEqual(pr.Result, stored.Result) {
			t.Errorf("queued=%d: result differs from the stored plan:\n%+v\nvs\n%+v", queued, pr.Result, stored.Result)
		}
	}
}

// A memory hit through resolvePlan allocates no more than it did as a
// 6-tuple behind evalPlan (8 allocations): the hot-zipf and cluster-zipf
// request path.
func TestResolveMemoryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	s, _, _ := newTestServer(t, Config{})
	spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "unfused"}
	ctx := context.Background()
	if _, err := s.resolvePlan(ctx, spec, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r, err := s.resolvePlan(ctx, spec, true); err != nil || r.source != sourceMemory {
			t.Fatalf("memory hit = (%q, %v)", r.source, err)
		}
	})
	const want = 7
	if allocs > want {
		t.Fatalf("memory-hit resolution allocates %.0f times, want <= %d", allocs, want)
	}
}

// reconciler posts plan requests and holds every 200 response to one story
// told three ways — the wire, the trace and the counters:
//
//   - X-Plan-Source equals the body's source, which equals the plan.resolve
//     span's source (per entry for a batch);
//   - Served-Degraded equals the first non-empty degrade_mode of the
//     response's plan.resolve spans, in entry order;
//   - a result is marked Degraded exactly when its span carries a mode;
//   - the serve.degraded.* counters sum to the degraded responses served;
//   - serve.peer.hits + serve.peer.fallbacks == serve.peer.forwards.
type reconciler struct {
	t        *testing.T
	degraded map[*obs.Registry]int64
}

// target is one traced server.
type target struct {
	url string
	srv *Server
	reg *obs.Registry
}

// check posts body to route on tg, reconciles the response and returns the
// per-resolution sources and the Served-Degraded mode.
func (rc *reconciler) check(tg target, route, body string) ([]string, string) {
	t := rc.t
	t.Helper()
	resp, data := post(t, tg.url+route, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", route, body, resp.StatusCode, data)
	}
	var sources []string
	var results []transfusion.RunResult
	switch route {
	case "/v1/plan", "/v1/peer/plan":
		var pr PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if h := resp.Header.Get("X-Plan-Source"); h != pr.Source {
			t.Errorf("%s: X-Plan-Source %q != body source %q", route, h, pr.Source)
		}
		sources, results = []string{pr.Source}, []transfusion.RunResult{pr.Result}
	case "/v1/plan/batch":
		var br BatchPlanResponse
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatal(err)
		}
		for _, e := range br.Entries {
			sources, results = append(sources, e.Source), append(results, *e.Result)
		}
	case "/v1/compare":
		var cr CompareResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatal(err)
		}
		results = cr.Results
	}

	exp, ok := tg.srv.cfg.Tracer.Export(resp.Header.Get("X-Trace-Id"))
	if !ok {
		t.Fatalf("%s: no trace %q", route, resp.Header.Get("X-Trace-Id"))
	}
	spans := findSpans(exp.Spans, "plan.resolve")
	if len(spans) != len(results) {
		t.Fatalf("%s: %d plan.resolve spans for %d results", route, len(spans), len(results))
	}
	first := ""
	var spanSources []string
	for i, sp := range spans {
		src, _ := spanAttr(sp, "source")
		spanSources = append(spanSources, src)
		if sources != nil && src != sources[i] {
			t.Errorf("%s entry %d: body source %q != span source %q", route, i, sources[i], src)
		}
		mode, _ := spanAttr(sp, "degrade_mode")
		if results[i].Degraded != (mode != "") || (mode != "" && results[i].DegradedReason == "") {
			t.Errorf("%s entry %d: result Degraded=%t (%q) but span degrade_mode %q",
				route, i, results[i].Degraded, results[i].DegradedReason, mode)
		}
		if first == "" {
			first = mode
		}
	}
	served := resp.Header.Get("Served-Degraded")
	if served != first {
		t.Errorf("%s: Served-Degraded %q != first span degrade_mode %q", route, served, first)
	}
	if served != "" {
		rc.degraded[tg.reg]++
	}
	if sum := degradedCounterSum(tg.reg); sum != rc.degraded[tg.reg] {
		t.Errorf("%s: serve.degraded.* sum %d != %d degraded responses", route, sum, rc.degraded[tg.reg])
	}
	f := tg.reg.Counter("serve.peer.forwards").Value()
	h := tg.reg.Counter("serve.peer.hits").Value()
	fb := tg.reg.Counter("serve.peer.fallbacks").Value()
	if h+fb != f {
		t.Errorf("%s: serve.peer.hits %d + fallbacks %d != forwards %d", route, h, fb, f)
	}
	return spanSources, served
}

// findSpans collects every span with the given name, depth first in
// creation order.
func findSpans(spans []*obs.SpanExport, name string) []*obs.SpanExport {
	var out []*obs.SpanExport
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
		out = append(out, findSpans(s.Children, name)...)
	}
	return out
}

func newTracer() *obs.Tracer { return obs.NewTracer(obs.TracerConfig{Seed: 1, Capacity: 256}) }

// Every source (memory, disk, warm-search, search, peer, peer-warm) and
// every degradation mode (budget, heuristic, watchdog, search) over every
// plan route (/v1/plan, /v1/plan/batch, /v1/compare, /v1/peer/plan), each
// response reconciled against its trace and the counters. Two rows pin the
// /v1/compare rules that settling degradation once brought: a result served
// under a ladder or watchdog mode carries Degraded/DegradedReason, and the
// header takes the first non-empty mode in entry order.
func TestSourceAndDegradationReconcile(t *testing.T) {
	rc := &reconciler{t: t, degraded: map[*obs.Registry]int64{}}
	plan := func(seq int, system string, budget int) string {
		return fmt.Sprintf(`{"arch":"edge","model":"bert","seq_len":%d,"system":%q,"search_budget":%d}`, seq, system, budget)
	}
	batch := func(bodies ...string) string {
		out := `{"requests":[`
		for i, b := range bodies {
			if i > 0 {
				out += ","
			}
			out += b
		}
		return out + `]}`
	}

	// One node over a store seeded with warmSeedBody's plan, the ladder at
	// MaxQueue 8 and a reduced budget of 4.
	dir := t.TempDir()
	seed, seedTS, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
	if resp, data := post(t, seedTS.URL+"/v1/plan", warmSeedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %d: %s", resp.StatusCode, data)
	}
	seed.fills.Wait()
	node, nodeTS, nodeReg := storeTestServer(t,
		Config{MaxQueue: 8, ReducedBudget: 4, WatchdogTimeout: -1, Tracer: newTracer()}, dir, true, "")
	local := target{nodeTS.URL, node, nodeReg}

	// A node whose second cache leader stalls past the watchdog.
	wdSrv, wdTS, wdReg, _ := chaosTestServer(t, Config{
		RequestTimeout: 10 * time.Second, WatchdogTimeout: 30 * time.Millisecond, Tracer: newTracer(),
	}, "serve.cache.leader=latency:2s@after=1@limit=1", 11)
	wd := target{wdTS.URL, wdSrv, wdReg}
	// A node whose every search rollout faults, so searches degrade inside.
	srch, srchTS, srchReg, _ := chaosTestServer(t, Config{WatchdogTimeout: -1, Tracer: newTracer()},
		"tileseek.rollout=error@every=1", 7)
	searchDeg := target{srchTS.URL, srch, srchReg}

	// Two traced replicas; the second has a disk tier, so its peer route can
	// search warm and its cache-only misses carry a warm hint.
	h := newClusterHarness(t, clusterOpts{n: 2, cfg: Config{MaxQueue: 8, WatchdogTimeout: -1},
		replicaCfg: func(i int, cfg *Config) {
			cfg.Tracer = newTracer()
			if i == 1 {
				st, err := store.Open(t.TempDir(), 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
		}})
	t.Cleanup(h.servers[1].fills.Wait)
	requester := target{h.urls[0], h.servers[0], h.regs[0]}
	owner := target{h.urls[1], h.servers[1], h.regs[1]}
	var ownedBy1 []transfusion.RunSpec
	for seq := 256; len(ownedBy1) < 3; seq += 256 {
		spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 4}
		if h.ownerIndex(t, spec) == 1 {
			ownedBy1 = append(ownedBy1, spec)
		}
	}
	peerSpec, remapHit, warmTarget := ownedBy1[0], ownedBy1[1], ownedBy1[2]
	neighbour := warmTarget
	neighbour.SeqLen += 128

	type step struct {
		name    string
		tg      *target
		route   string
		body    string
		queued  int64 // ladder pressure on the target node during the step
		sources []string
		mode    string
		setup   func()
	}
	steps := []step{
		{name: "disk", tg: &local, route: "/v1/plan", body: warmSeedBody, sources: []string{sourceDisk}},
		{name: "memory", tg: &local, route: "/v1/plan", body: warmSeedBody, sources: []string{sourceMemory}},
		{name: "warm-search", tg: &local, route: "/v1/plan", body: warmNeighbourBody, sources: []string{sourceWarm}},
		{name: "search", tg: &local, route: "/v1/plan", body: fastPlanBody, sources: []string{sourceSearch}},
		{name: "peer route search", tg: &local, route: "/v1/peer/plan", body: plan(4096, "flat", 0), sources: []string{sourceSearch}},
		{name: "peer route memory", tg: &local, route: "/v1/peer/plan", body: plan(4096, "flat", 0), sources: []string{sourceMemory}},
		{name: "batch mixed", tg: &local, route: "/v1/plan/batch",
			body:    batch(warmSeedBody, `{"arch":"cloud","model":"bert","seq_len":2048,"system":"unfused"}`),
			sources: []string{sourceMemory, sourceSearch}},
		{name: "budget", tg: &local, route: "/v1/plan", body: plan(4096, "transfusion", 8), queued: 4,
			sources: []string{sourceSearch}, mode: degradeBudget},
		// Every system is rewritten to the reduced budget, so every result
		// carries the budget stamp.
		{name: "budget compare", tg: &local, route: "/v1/compare", body: `{"arch":"edge","model":"bert","seq_len":8192,"search_budget":8}`, queued: 4,
			sources: []string{sourceSearch, sourceSearch, sourceSearch, sourceSearch, sourceSearch}, mode: degradeBudget},
		{name: "heuristic", tg: &local, route: "/v1/plan", body: plan(8192, "transfusion", 8), queued: 8,
			sources: []string{sourceSearch}, mode: degradeHeuristic},
		{name: "heuristic batch", tg: &local, route: "/v1/plan/batch", queued: 8,
			body:    batch(warmSeedBody, plan(16384, "fusemax", 0)),
			sources: []string{sourceMemory, sourceSearch}, mode: degradeHeuristic},
		// Unfused answers at full fidelity, flat's leader stalls into the
		// watchdog: the header takes the first non-empty mode.
		{name: "watchdog compare", tg: &wd, route: "/v1/compare", body: `{"arch":"edge","model":"bert","seq_len":1024,"search_budget":4}`,
			sources: []string{sourceSearch, sourceSearch, sourceSearch, sourceSearch, sourceSearch}, mode: degradeWatchdog},
		{name: "search", tg: &searchDeg, route: "/v1/plan", body: searchPlanBody,
			sources: []string{sourceSearch}, mode: degradeSearch},
		{name: "search batch", tg: &searchDeg, route: "/v1/plan/batch", body: batch(fastPlanBody, plan(2048, "transfusion", 4)),
			sources: []string{sourceSearch, sourceSearch}, mode: degradeSearch},
		{name: "search compare", tg: &searchDeg, route: "/v1/compare", body: `{"arch":"edge","model":"bert","seq_len":4096,"search_budget":4}`,
			sources: []string{sourceSearch, sourceSearch, sourceSearch, sourceSearch, sourceSearch}, mode: degradeSearch},
		{name: "peer", tg: &requester, route: "/v1/plan", body: planBody(peerSpec), sources: []string{sourcePeer}},
		{name: "peer then memory", tg: &requester, route: "/v1/plan/batch",
			body:    batch(planBody(peerSpec), planBody(h.specOwnedBy(t, 0))),
			sources: []string{sourceMemory, sourceSearch}},
		{name: "owner peer route", tg: &owner, route: "/v1/peer/plan", body: planBody(peerSpec), sources: []string{sourceMemory}},
		{name: "owner peer route warm", tg: &owner, route: "/v1/peer/plan", body: planBody(remapHit), sources: []string{sourceWarm},
			setup: h.servers[1].fills.Wait}, // peerSpec, the same family, is stored
		{name: "remap peer", tg: &requester, route: "/v1/plan", body: planBody(remapHit), sources: []string{sourcePeer},
			setup: func() {
				// The owner also plans the warm target's neighbour; then the
				// requester's ring drops the owner, so the owner's keys remap
				// to the requester, which asks the previous owner's caches.
				rc.check(owner, "/v1/peer/plan", planBody(neighbour))
				h.servers[1].fills.Wait()
				if err := h.servers[0].cfg.Cluster.Reload(h.urls[:1]); err != nil {
					t.Fatal(err)
				}
			}},
		// A cache-only miss carries the previous owner's nearest stored
		// recipe, and the requester's search starts warm from it.
		{name: "peer-warm", tg: &requester, route: "/v1/plan", body: planBody(warmTarget), sources: []string{sourcePeerWarm}},
	}
	for _, st := range steps {
		if st.setup != nil {
			st.setup()
		}
		st.tg.srv.adm.queued.Store(st.queued)
		sources, mode := rc.check(*st.tg, st.route, st.body)
		st.tg.srv.adm.queued.Store(0)
		if !reflect.DeepEqual(sources, st.sources) || mode != st.mode {
			t.Errorf("%s: (sources %v, mode %q), want (%v, %q)", st.name, sources, mode, st.sources, st.mode)
		}
	}
}
