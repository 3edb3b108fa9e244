package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	transfusion "github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// The cluster suite boots N real replicas — each a full Server with its own
// registry and listener, joined by a consistent-hash ring over real HTTP —
// and holds the tier to its contract:
//
//   - cluster-wide singleflight: concurrent identical requests through
//     different replicas trigger exactly one tile search in the whole
//     cluster (asserted via each replica's own tileseek.searches counter);
//   - bit-identical results: every replica's answer equals the single-node
//     reference answer, whatever tier served it;
//   - graceful degradation: a killed, draining, or fault-injected owner
//     never fails a request — the requester falls back to a local search;
//   - accounting: serve.peer.hits + serve.peer.fallbacks ==
//     serve.peer.forwards on every replica, and X-Plan-Source: peer appears
//     exactly serve.peer.hits times.
//
// Goroutine leaks are covered package-wide by TestMain's LeakCheckMain.

// clusterHarness is n live replicas sharing one ring.
type clusterHarness struct {
	urls    []string
	servers []*Server
	https   []*httptest.Server
	regs    []*obs.Registry
}

// clusterOpts tunes harness construction per test.
type clusterOpts struct {
	n            int
	cfg          Config        // per-replica serve config
	fetchTimeout time.Duration // peer fetch bound (default 2s)
	chaos        string        // chaos schedule armed on every replica ("" disables)
	chaosSeed    uint64
	replicaCfg   func(i int, cfg *Config) // per-replica edits to cfg (nil: none)
	peerRetries  int                      // peer client retries after the first try (default none)
}

// newClusterHarness boots opts.n replicas on real loopback listeners. The
// listeners are bound first so every replica knows the full member list
// before it starts serving.
func newClusterHarness(t *testing.T, opts clusterOpts) *clusterHarness {
	t.Helper()
	if opts.fetchTimeout == 0 {
		opts.fetchTimeout = 2 * time.Second
	}
	if opts.peerRetries == 0 {
		opts.peerRetries = -1
	}
	listeners := make([]net.Listener, opts.n)
	urls := make([]string, opts.n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	h := &clusterHarness{urls: urls}
	for i := range listeners {
		cl, err := cluster.New(cluster.Config{
			Self:         urls[i],
			Peers:        urls,
			FetchTimeout: opts.fetchTimeout,
			ClientOptions: client.Options{
				// Fail fast and predictably: a dead peer should cost one
				// connection attempt, not a retry ladder, and the breaker
				// must not carry state between assertions.
				MaxRetries:       opts.peerRetries,
				BreakerThreshold: -1,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       5 * time.Millisecond,
				Seed:             1,
				HTTPClient:       &http.Client{Timeout: opts.fetchTimeout + time.Second},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := opts.cfg
		cfg.Cluster = cl
		if opts.replicaCfg != nil {
			opts.replicaCfg(i, &cfg)
		}
		ctx := context.Background()
		if opts.chaos != "" {
			inj, err := chaos.Parse(opts.chaos, opts.chaosSeed)
			if err != nil {
				t.Fatal(err)
			}
			ctx = chaos.With(ctx, inj)
		}
		reg := obs.NewRegistry()
		s := New(cfg, reg, ctx)
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		h.servers = append(h.servers, s)
		h.https = append(h.https, ts)
		h.regs = append(h.regs, reg)
	}
	return h
}

// ownerIndex returns which replica owns spec's full-fidelity key.
func (h *clusterHarness) ownerIndex(t *testing.T, spec transfusion.RunSpec) int {
	t.Helper()
	owner := h.servers[0].cfg.Cluster.Owner(spec.CanonicalKey())
	for i, u := range h.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a harness replica (%v)", owner, h.urls)
	return -1
}

// specOwnedBy finds a search-backed spec whose key replica idx owns, by
// scanning sequence lengths (ownership is deterministic, so this always
// terminates quickly).
func (h *clusterHarness) specOwnedBy(t *testing.T, idx int) transfusion.RunSpec {
	t.Helper()
	for seq := 256; seq <= 64*1024; seq += 256 {
		spec := transfusion.RunSpec{
			Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 4,
		}
		if h.ownerIndex(t, spec) == idx {
			return spec
		}
	}
	t.Fatalf("no spec owned by replica %d", idx)
	return transfusion.RunSpec{}
}

func planBody(spec transfusion.RunSpec) string {
	return fmt.Sprintf(`{"arch":%q,"model":%q,"seq_len":%d,"system":%q,"search_budget":%d}`,
		spec.Arch, spec.Model, spec.SeqLen, spec.System, spec.SearchBudget)
}

// referenceResult computes spec's answer on a fresh single-node server — the
// bit-identical baseline every cluster answer must match.
func referenceResult(t *testing.T, spec transfusion.RunSpec) transfusion.RunResult {
	t.Helper()
	_, ts, _ := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+"/v1/plan", planBody(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference request: status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	return pr.Result
}

// peerAccounting asserts the per-replica counter invariant and returns the
// cluster-wide totals.
func (h *clusterHarness) peerAccounting(t *testing.T) (forwards, hits, fallbacks int64) {
	t.Helper()
	for i, reg := range h.regs {
		f := reg.Counter("serve.peer.forwards").Value()
		ht := reg.Counter("serve.peer.hits").Value()
		fb := reg.Counter("serve.peer.fallbacks").Value()
		if ht+fb != f {
			t.Errorf("replica %d: hits %d + fallbacks %d != forwards %d", i, ht, fb, f)
		}
		forwards, hits, fallbacks = forwards+f, hits+ht, fallbacks+fb
	}
	return forwards, hits, fallbacks
}

// searches sums tileseek.searches across replicas — the cluster-wide count
// of real tile searches run.
func (h *clusterHarness) searches() int64 {
	var n int64
	for _, reg := range h.regs {
		n += reg.Counter("tileseek.searches").Value()
	}
	return n
}

// Concurrent identical requests through every replica of a 3-node cluster
// must run exactly one tile search cluster-wide: non-owners forward to the
// owner, whose singleflight coalesces everything into a single evaluation.
// Every answer is bit-identical to the single-node reference.
func TestClusterWideSingleflight(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 3})
	spec := h.specOwnedBy(t, 0)
	want := referenceResult(t, spec)
	body := planBody(spec)

	const perReplica = 4
	type answer struct {
		status  int
		source  string
		replica int
		result  transfusion.RunResult
	}
	answers := make(chan answer, perReplica*len(h.urls))
	var wg sync.WaitGroup
	for i := range h.urls {
		for j := 0; j < perReplica; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, data := post(t, h.urls[i]+"/v1/plan", body)
				a := answer{status: resp.StatusCode, source: resp.Header.Get("X-Plan-Source"), replica: i}
				if resp.StatusCode == http.StatusOK {
					var pr PlanResponse
					if err := json.Unmarshal(data, &pr); err == nil {
						a.result = pr.Result
					}
				}
				answers <- a
			}(i)
		}
	}
	wg.Wait()
	close(answers)

	for a := range answers {
		if a.status != http.StatusOK {
			t.Fatalf("replica %d answered %d", a.replica, a.status)
		}
		if !reflect.DeepEqual(a.result, want) {
			t.Fatalf("replica %d (source %s) diverged from the single-node reference:\ngot  %+v\nwant %+v",
				a.replica, a.source, a.result, want)
		}
		switch a.source {
		case sourceMemory, sourcePeer, sourceSearch, sourceWarm:
		default:
			t.Fatalf("replica %d reported unknown source %q", a.replica, a.source)
		}
	}

	if got := h.searches(); got != 1 {
		t.Fatalf("cluster ran %d tile searches, want exactly 1", got)
	}
	for i, reg := range h.regs {
		if n := reg.Counter("tileseek.searches").Value(); n > 0 && i != 0 {
			t.Fatalf("non-owner replica %d ran a search", i)
		}
	}
	forwards, hits, fallbacks := h.peerAccounting(t)
	if fallbacks != 0 {
		t.Fatalf("healthy cluster recorded %d fallbacks", fallbacks)
	}
	if forwards == 0 || hits != forwards {
		t.Fatalf("forwards=%d hits=%d: non-owners did not fetch from the owner", forwards, hits)
	}
	// The owner served every fetch it admitted.
	if served := h.regs[0].Counter("serve.peer.serves").Value(); served != hits {
		t.Fatalf("owner served %d peer fetches, requesters counted %d hits", served, hits)
	}
}

// A SIGKILLed owner (its listener torn down mid-flight) must degrade, not
// fail: requests for its keys through surviving replicas fall back to a
// local search and still return the bit-identical reference answer.
func TestClusterKilledOwnerFallsBackLocally(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 3})
	spec := h.specOwnedBy(t, 2)
	want := referenceResult(t, spec)

	// Kill the owner the hard way: no drain, connections refused.
	h.https[2].CloseClientConnections()
	h.https[2].Close()

	for _, i := range []int{0, 1} {
		resp, data := post(t, h.urls[i]+"/v1/plan", planBody(spec))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d with dead owner answered %d: %s", i, resp.StatusCode, data)
		}
		var pr PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pr.Result, want) {
			t.Fatalf("replica %d fallback diverged from reference", i)
		}
		if src := resp.Header.Get("X-Plan-Source"); src == sourcePeer {
			t.Fatalf("replica %d claimed a peer answer from a dead owner", i)
		}
	}
	_, hits, fallbacks := h.peerAccounting(t)
	if hits != 0 || fallbacks != 2 {
		t.Fatalf("hits=%d fallbacks=%d, want 0 hits and 2 fallbacks", hits, fallbacks)
	}
	// Each survivor searched locally — the dead owner cost duplicated work,
	// never availability.
	if got := h.searches(); got != 2 {
		t.Fatalf("survivors ran %d searches, want 2", got)
	}
}

// A draining owner refuses peer fetches (503 on the internal route) so the
// requester finishes locally; in-flight work on the drainer is unaffected.
func TestClusterDrainingOwnerRefusesPeerFetches(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 3})
	spec := h.specOwnedBy(t, 1)
	want := referenceResult(t, spec)

	h.servers[1].draining.Store(true)

	// Direct probe: the internal route answers 503 while draining.
	resp, _ := post(t, h.urls[1]+"/v1/peer/plan", planBody(spec))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining owner answered peer fetch with %d, want 503", resp.StatusCode)
	}
	if n := h.regs[1].Counter("serve.peer.rejects").Value(); n != 1 {
		t.Fatalf("serve.peer.rejects = %d, want 1", n)
	}

	// A user request through a non-owner falls back to local search.
	resp, data := post(t, h.urls[0]+"/v1/plan", planBody(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with draining owner answered %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Result, want) {
		t.Fatal("fallback past a draining owner diverged from reference")
	}
	if fb := h.regs[0].Counter("serve.peer.fallbacks").Value(); fb != 1 {
		t.Fatalf("requester fallbacks = %d, want 1", fb)
	}

	// A draining replica never forwards its own user traffic either — it is
	// about to disappear, so it must not open new cross-replica work.
	other := h.specOwnedBy(t, 0)
	resp, _ = post(t, h.urls[1]+"/v1/plan", planBody(other))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining replica's own request answered %d", resp.StatusCode)
	}
	if f := h.regs[1].Counter("serve.peer.forwards").Value(); f != 0 {
		t.Fatalf("draining replica forwarded %d fetches, want 0", f)
	}
}

// A peer refusal carries the owner's nearest stored recipe and no
// Retry-After: the requester falls back to its own search at once, so a
// back-off hint would go unread.
func TestPeerRefusalCarriesHintNotRetryAfter(t *testing.T) {
	s, ts, _ := storeTestServer(t, Config{}, t.TempDir(), true, "")
	target := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 4}
	neighbour := target
	neighbour.SeqLen = 2048
	if resp, data := post(t, ts.URL+"/v1/plan", planBody(neighbour)); resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbour: %d: %s", resp.StatusCode, data)
	}
	s.fills.Wait()
	want := s.nearestHint(context.Background(), target.CanonicalKey())
	if want == nil {
		t.Fatal("store holds no recipe near the target")
	}

	s.draining.Store(true)
	resp, data := post(t, ts.URL+"/v1/peer/plan", planBody(target))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining owner answered %d, want 503: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("peer refusal carries Retry-After %q, want none", ra)
	}
	var body errorResponse
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != http.StatusServiceUnavailable || !reflect.DeepEqual(body.WarmHint, want) {
		t.Fatalf("refusal body = %+v, want status 503 and hint %+v", body, want)
	}
}

// An overloaded owner (degradation ladder engaged) withholds results from
// peers rather than shipping degraded plans across the cluster.
func TestClusterOverloadedOwnerWithholdsDegraded(t *testing.T) {
	// MaxQueue 1: a single queued waiter already puts the ladder past tier 0
	// (the ladder reads queue depth, and 2*1 >= 1).
	h := newClusterHarness(t, clusterOpts{n: 2, cfg: Config{MaxConcurrent: 1, MaxQueue: 1}})

	spec := h.specOwnedBy(t, 1)
	release := h.engageLadder(t, 1, spec)
	defer release()

	resp, _ := post(t, h.urls[1]+"/v1/peer/plan", planBody(spec))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded owner answered peer fetch with %d, want 503", resp.StatusCode)
	}
	if n := h.regs[1].Counter("serve.peer.rejects").Value(); n == 0 {
		t.Fatal("overloaded owner recorded no peer reject")
	}
}

// engageLadder wedges replica idx's only evaluation slot (MaxConcurrent 1),
// then parks a request for spec in its queue so pressure rises, and waits
// until the ladder is past tier 0. spec must be a key replica idx owns
// itself — a non-owned key would forward and never queue there. The
// returned func frees the slot and waits for the parked request.
func (h *clusterHarness) engageLadder(t *testing.T, idx int, spec transfusion.RunSpec) func() {
	t.Helper()
	if err := h.servers[idx].adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Post(h.urls[idx]+"/v1/plan", "application/json", strings.NewReader(planBody(spec)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	release := func() {
		h.servers[idx].adm.release()
		<-parked
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.servers[idx].degradeTier() == 0 {
		if time.Now().After(deadline) {
			release()
			t.Fatal("ladder never engaged")
		}
		time.Sleep(time.Millisecond)
	}
	return release
}

// An owner's refusal is final: the requester falls back at once instead of
// waiting out the refusal's Retry-After (at least 1s), so the nearest-plan
// hint the refusal carries still seeds the local search. The peer client
// here retries like a default client; only transport errors may use that.
func TestClusterRefusalFallsBackAtOnce(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 2, cfg: Config{MaxConcurrent: 1, MaxQueue: 1, WatchdogTimeout: -1},
		peerRetries: 3,
		replicaCfg: func(i int, cfg *Config) {
			if i == 0 {
				cfg.Tracer = newTracer()
				return
			}
			st, err := store.Open(t.TempDir(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = st
		}})
	t.Cleanup(h.servers[1].fills.Wait)
	var owned []transfusion.RunSpec
	for seq := 256; len(owned) < 2; seq += 256 {
		spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 4}
		if h.ownerIndex(t, spec) == 1 {
			owned = append(owned, spec)
		}
	}
	target, parkedSpec := owned[0], owned[1]

	// The owner stores the target's neighbour; the peer route never forwards.
	neighbour := target
	neighbour.SeqLen += 128
	if resp, data := post(t, h.urls[1]+"/v1/peer/plan", planBody(neighbour)); resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbour: %d: %s", resp.StatusCode, data)
	}
	h.servers[1].fills.Wait()

	release := h.engageLadder(t, 1, parkedSpec)
	resp, data := post(t, h.urls[0]+"/v1/plan", planBody(target))
	release()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request past a refusing owner: %d: %s", resp.StatusCode, data)
	}
	if src := resp.Header.Get("X-Plan-Source"); src != sourcePeerWarm {
		t.Fatalf("served from %q, want %q (the refusal's hint seeds the search)", src, sourcePeerWarm)
	}
	exp, ok := h.servers[0].cfg.Tracer.Export(resp.Header.Get("X-Trace-Id"))
	if !ok {
		t.Fatal("requester kept no trace")
	}
	spans := findSpans(exp.Spans, "client.peer_plan")
	if len(spans) != 1 {
		t.Fatalf("%d client.peer_plan spans, want 1", len(spans))
	}
	for _, ev := range spans[0].Events {
		if ev.Name == "retry" {
			t.Fatal("the peer client retried a refusal")
		}
	}
	if d := time.Duration(spans[0].DurUS) * time.Microsecond; d > 500*time.Millisecond {
		t.Fatalf("forward took %v, want well under the refusal's 1s Retry-After", d)
	}
	if n := h.regs[1].Counter("serve.peer.rejects").Value(); n != 1 {
		t.Fatalf("owner serve.peer.rejects = %d, want 1", n)
	}
}

// Fixed-seed fault schedules at the serve.peer.fetch site: whatever the
// fault kind — injected errors, latency past the fetch budget, cancellation
// — every request answers 200 with the bit-identical reference result via
// local fallback, and the header/counter accounting stays consistent.
func TestClusterPeerFetchChaosSchedules(t *testing.T) {
	schedules := []struct {
		name  string
		spec  string
		fetch time.Duration
	}{
		// Every fetch errors: pure local fallback.
		{name: "error", spec: "serve.peer.fetch=error@every=1"},
		// Injected latency exceeds the fetch budget: the fetch context
		// expires and the requester searches locally.
		{name: "latency", spec: "serve.peer.fetch=latency:400ms@every=1", fetch: 50 * time.Millisecond},
		// Alternating cancellation: odd fetches die, even fetches succeed —
		// the mixed case must keep hits + fallbacks == forwards.
		{name: "cancel-alternating", spec: "serve.peer.fetch=cancel@every=2"},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			h := newClusterHarness(t, clusterOpts{
				n: 3, chaos: sc.spec, chaosSeed: 7, fetchTimeout: sc.fetch,
			})
			// Three distinct search-backed specs, each owned by a different
			// replica, each requested through every replica.
			peerSeen := int64(0)
			for idx := 0; idx < 3; idx++ {
				spec := h.specOwnedBy(t, idx)
				want := referenceResult(t, spec)
				for i := range h.urls {
					resp, data := post(t, h.urls[i]+"/v1/plan", planBody(spec))
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("schedule %s: replica %d answered %d: %s", sc.name, i, resp.StatusCode, data)
					}
					var pr PlanResponse
					if err := json.Unmarshal(data, &pr); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(pr.Result, want) {
						t.Fatalf("schedule %s: replica %d diverged from reference (source %s)",
							sc.name, i, resp.Header.Get("X-Plan-Source"))
					}
					if resp.Header.Get("X-Plan-Source") == sourcePeer {
						peerSeen++
					}
				}
			}
			forwards, hits, fallbacks := h.peerAccounting(t)
			if forwards == 0 {
				t.Fatalf("schedule %s: no fetches were even attempted", sc.name)
			}
			if hits != peerSeen {
				t.Fatalf("schedule %s: %d X-Plan-Source: peer headers vs %d counted hits", sc.name, peerSeen, hits)
			}
			switch sc.name {
			case "error", "latency":
				if fallbacks != forwards {
					t.Fatalf("schedule %s: fallbacks %d != forwards %d under an every=1 fault", sc.name, fallbacks, forwards)
				}
			case "cancel-alternating":
				if fallbacks == 0 || hits == 0 {
					t.Fatalf("schedule %s: want a mix, got hits=%d fallbacks=%d", sc.name, hits, fallbacks)
				}
			}
		})
	}
}

// A fetched peer plan fills the local tiers: the second request for the same
// key on the same non-owner answers from its own memory, with no second
// forward.
func TestClusterPeerHitFillsLocalCache(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 3})
	spec := h.specOwnedBy(t, 1)
	body := planBody(spec)

	resp, _ := post(t, h.urls[0]+"/v1/plan", body)
	if src := resp.Header.Get("X-Plan-Source"); src != sourcePeer {
		t.Fatalf("first non-owner request source = %q, want peer", src)
	}
	resp, data := post(t, h.urls[0]+"/v1/plan", body)
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if src := resp.Header.Get("X-Plan-Source"); src != sourceMemory || !pr.Cached {
		t.Fatalf("second request source=%q cached=%t, want a memory hit", src, pr.Cached)
	}
	if f := h.regs[0].Counter("serve.peer.forwards").Value(); f != 1 {
		t.Fatalf("forwards = %d, want exactly 1", f)
	}
}
