package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	transfusion "github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// The membership suite drives dynamic cluster membership end to end: real
// replicas with live probers are killed, resurrected, and reconfigured
// mid-traffic, and the contract under test is the robustness one —
//
//   - no request ever fails because of a membership event: every client
//     answer is a 200, whatever the ring was doing at the time;
//   - every replica that observed the same event schedule converges to the
//     same ring generation and member set, and the membership gauges
//     (cluster.member.alive/suspect/dead, cluster.ring.generation) agree
//     with the cluster's own view;
//   - a key whose ownership moved is served through at most one cache-only
//     previous-owner fetch (cluster.remap.fetches), never a duplicate
//     search, and never a fetch pointed at a dead member.
//
// Unlike clusterHarness (static httptest servers), memberHarness manages
// each replica's listener and http.Server by hand so a replica can be
// killed — listener torn down, connections refused — and later resurrected
// on the same address with its caches intact, which is exactly the
// kill/resurrect schedule the failure detector exists for.

// memberReplica is one harness replica: a full Server plus the manually
// managed listener that lets tests kill and resurrect it.
type memberReplica struct {
	url    string
	s      *Server
	reg    *obs.Registry
	cl     *cluster.Cluster
	st     *store.Store
	prober *cluster.Prober

	// gens records the ring generations OnChange announced, in order.
	genMu sync.Mutex
	gens  []uint64

	mu sync.Mutex
	hs *http.Server
	wg sync.WaitGroup
}

// kill tears the replica's listener and connections down hard (no drain),
// like a SIGKILL. Idempotent.
func (r *memberReplica) kill() {
	r.mu.Lock()
	hs := r.hs
	r.hs = nil
	r.mu.Unlock()
	if hs != nil {
		hs.Close() //nolint:errcheck
	}
	r.wg.Wait()
}

// resurrect re-binds the replica's original address and serves again with
// the same Server — caches warm, as after a fast process restart behind a
// stable address.
func (r *memberReplica) resurrect(t *testing.T) {
	t.Helper()
	addr := r.url[len("http://"):]
	var l net.Listener
	var err error
	// The previous listener just closed; give the kernel a beat to release
	// the port on the rare unlucky schedule.
	for attempt := 0; attempt < 50; attempt++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("resurrecting %s: %v", r.url, err)
	}
	r.serveOn(l)
}

func (r *memberReplica) serveOn(l net.Listener) {
	hs := &http.Server{Handler: r.s.Handler()}
	r.mu.Lock()
	r.hs = hs
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		hs.Serve(l) //nolint:errcheck
	}()
}

type memberHarness struct {
	urls []string
	reps []*memberReplica
}

// memberOpts tunes harness construction per test.
type memberOpts struct {
	n            int
	probe        cluster.ProbeConfig // zero Interval leaves the prober off
	probers      bool
	stores       bool   // give each replica its own disk tier
	probeChaos   string // chaos schedule armed on every replica's prober
	chaosSeed    uint64
	fetchTimeout time.Duration
}

func newMemberHarness(t *testing.T, opts memberOpts) *memberHarness {
	t.Helper()
	if opts.fetchTimeout == 0 {
		opts.fetchTimeout = 2 * time.Second
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
	h := &memberHarness{urls: urls}
	for i := range listeners {
		r := &memberReplica{url: urls[i], reg: obs.NewRegistry()}
		cl, err := cluster.New(cluster.Config{
			Self:         urls[i],
			Peers:        urls,
			FetchTimeout: opts.fetchTimeout,
			Probe:        opts.probe,
			Metrics:      r.reg,
			OnChange: func(gen uint64, _ []string) {
				r.genMu.Lock()
				r.gens = append(r.gens, gen)
				r.genMu.Unlock()
			},
			ClientOptions: client.Options{
				// Fail fast and predictably: a dead peer costs one connection
				// attempt, and no breaker state leaks between phases.
				MaxRetries:       -1,
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
		r.cl = cl
		cfg := Config{Cluster: cl}
		if opts.stores {
			st, err := store.Open(t.TempDir(), 0, r.reg)
			if err != nil {
				t.Fatal(err)
			}
			r.st = st
			cfg.Store = st
		}
		r.s = New(cfg, r.reg, context.Background())
		if opts.stores {
			t.Cleanup(r.s.fills.Wait) // before the store's TempDir is removed
		}
		r.serveOn(listeners[i])
		t.Cleanup(r.kill)
		if opts.probers {
			proberCtx := context.Background()
			if opts.probeChaos != "" {
				inj, err := chaos.Parse(opts.probeChaos, opts.chaosSeed)
				if err != nil {
					t.Fatal(err)
				}
				proberCtx = chaos.With(proberCtx, inj)
			}
			r.prober = cl.StartProber(proberCtx)
			t.Cleanup(r.prober.Stop)
		}
		h.reps = append(h.reps, r)
	}
	return h
}

// specsOwnedBy returns n distinct search-backed specs whose keys replica idx
// owns under replica 0's current ring, scanning sequence lengths.
func (h *memberHarness) specsOwnedBy(t *testing.T, idx, n int) []transfusion.RunSpec {
	t.Helper()
	var out []transfusion.RunSpec
	for seq := 256; seq <= 64*1024 && len(out) < n; seq += 256 {
		spec := transfusion.RunSpec{
			Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 4,
		}
		if h.reps[0].cl.Owner(spec.CanonicalKey()) == h.urls[idx] {
			out = append(out, spec)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d specs owned by replica %d", len(out), n, idx)
	}
	return out
}

// postPlan sends spec to replica URL and returns status, source header, and
// decoded response.
func postPlan(t *testing.T, url string, spec transfusion.RunSpec) (int, string, PlanResponse) {
	t.Helper()
	resp, data := post(t, url+"/v1/plan", planBody(spec))
	var pr PlanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("decoding plan response: %v: %s", err, data)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Plan-Source"), pr
}

// mustPlan is postPlan that fails the test on any non-200.
func mustPlan(t *testing.T, url string, spec transfusion.RunSpec) (string, PlanResponse) {
	t.Helper()
	status, src, pr := postPlan(t, url, spec)
	if status != http.StatusOK {
		t.Fatalf("POST %s for seq %d: status %d", url, spec.SeqLen, status)
	}
	return src, pr
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pounder hammers a set of (url, spec) targets from the background until
// stopped, recording every non-200 or transport error.
type pounder struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	total    atomic.Int64
	failures atomic.Int64

	mu    sync.Mutex
	first string
}

func startPounder(urls []string, specs []transfusion.RunSpec) *pounder {
	p := &pounder{stop: make(chan struct{})}
	for _, u := range urls {
		u := u
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for i := 0; ; i++ {
				select {
				case <-p.stop:
					return
				default:
				}
				spec := specs[i%len(specs)]
				resp, err := http.Post(u+"/v1/plan", "application/json",
					strings.NewReader(planBody(spec)))
				p.total.Add(1)
				if err != nil {
					p.fail(fmt.Sprintf("POST %s: %v", u, err))
				} else {
					if resp.StatusCode != http.StatusOK {
						p.fail(fmt.Sprintf("POST %s: status %d", u, resp.StatusCode))
					}
					resp.Body.Close()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	return p
}

func (p *pounder) fail(msg string) {
	p.failures.Add(1)
	p.mu.Lock()
	if p.first == "" {
		p.first = msg
	}
	p.mu.Unlock()
}

// halt stops the traffic and asserts every request answered 200.
func (p *pounder) halt(t *testing.T) {
	t.Helper()
	close(p.stop)
	p.wg.Wait()
	if n := p.failures.Load(); n != 0 {
		p.mu.Lock()
		first := p.first
		p.mu.Unlock()
		t.Fatalf("%d/%d background requests failed during membership churn; first: %s",
			n, p.total.Load(), first)
	}
	if p.total.Load() == 0 {
		t.Fatal("pounder sent no traffic")
	}
}

// TestMembershipKillResurrectUnderTraffic is the membership chaos suite's
// centrepiece: three replicas with live probers, one killed hard and later
// resurrected while background traffic keeps flowing through the survivors.
// Zero requests may fail, the survivors must converge to the same ring
// generation and member set at every step, no fetch may be pointed at the
// dead member, and the membership gauges must reconcile with the cluster's
// own view.
func TestMembershipKillResurrectUnderTraffic(t *testing.T) {
	h := newMemberHarness(t, memberOpts{
		n:       3,
		probers: true,
		probe: cluster.ProbeConfig{
			Interval:     20 * time.Millisecond,
			Timeout:      250 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    3,
			ReviveAfter:  2,
			Seed:         7,
		},
	})
	victim := h.reps[2]
	survivors := []*memberReplica{h.reps[0], h.reps[1]}

	// Warm one spec per replica through every replica: afterwards each
	// replica holds all three plans in memory, so the background traffic
	// below exercises the full request path at every ring generation.
	var warm []transfusion.RunSpec
	for idx := 0; idx < 3; idx++ {
		warm = append(warm, h.specsOwnedBy(t, idx, 1)[0])
	}
	for _, u := range h.urls {
		for _, spec := range warm {
			mustPlan(t, u, spec)
		}
	}

	// Fresh keys owned by the victim, reserved for the dead and revived
	// phases (specsOwnedBy scans deterministically, so asking for three
	// returns the warm spec first plus two unseen ones).
	fresh := h.specsOwnedBy(t, 2, 3)[1:]

	traffic := startPounder([]string{h.urls[0], h.urls[1]}, warm)

	// Kill the victim hard: connections refused, no drain, its own Server
	// object (and caches) intact for the resurrection below.
	victim.kill()

	// Both survivors must walk the victim through the detector to dead and
	// rebuild generation 2 without the victim.
	waitForCond(t, "survivors to declare the victim dead", func() bool {
		for _, r := range survivors {
			if r.cl.State(h.urls[2]) != cluster.StateDead || r.cl.Generation() != 2 {
				return false
			}
		}
		return true
	})
	liveSet := []string{h.urls[0], h.urls[1]}
	sort.Strings(liveSet)
	for i, r := range survivors {
		if got := r.cl.Members(); !reflect.DeepEqual(got, liveSet) {
			t.Fatalf("survivor %d members after death = %v, want %v", i, got, liveSet)
		}
		if a := r.reg.Gauge("cluster.member.alive").Value(); a != 2 {
			t.Fatalf("survivor %d alive gauge = %g after death, want 2", i, a)
		}
		if d := r.reg.Gauge("cluster.member.dead").Value(); d != 1 {
			t.Fatalf("survivor %d dead gauge = %g after death, want 1", i, d)
		}
	}

	// The victim's keys now belong to a survivor. Serving them must not
	// point any fetch at the corpse: the previous owner is dead, so the
	// remap path is skipped and the key is searched locally once.
	for i, spec := range fresh[:1] {
		for _, u := range []string{h.urls[0], h.urls[1]} {
			_, pr := mustPlan(t, u, spec)
			if pr.Result.Plan == nil {
				t.Fatalf("fresh spec %d served without a plan", i)
			}
		}
	}
	for i, r := range survivors {
		if n := r.reg.Counter("cluster.remap.fetches").Value(); n != 0 {
			t.Fatalf("survivor %d attempted %d remap fetches at a dead member", i, n)
		}
	}

	// Resurrection: same address, warm caches. The probers must walk it
	// back to alive and readmit it at generation 3.
	victim.resurrect(t)
	waitForCond(t, "survivors to readmit the resurrected member", func() bool {
		for _, r := range survivors {
			if r.cl.State(h.urls[2]) != cluster.StateAlive || r.cl.Generation() != 3 {
				return false
			}
		}
		return true
	})

	// The revived replica serves again, and the survivors forward its keys
	// to it like before the crash.
	for _, spec := range warm {
		mustPlan(t, h.urls[2], spec)
	}
	src, pr := mustPlan(t, h.urls[0], fresh[1])
	if pr.Result.Plan == nil {
		t.Fatal("post-revival spec served without a plan")
	}
	if src == sourcePeer {
		// Owner is the revived replica; a peer answer means the forward
		// worked end to end. A local source is equally legal (the ring may
		// assign the key to the requester), so only log for diagnosis.
		t.Logf("post-revival spec served via peer forward")
	}

	traffic.halt(t)

	// Final convergence: every replica agrees on the member set; the
	// survivors — who observed the same death and revival — agree on the
	// generation and announced the same transition sequence; gauges match.
	all := append([]string(nil), h.urls...)
	sort.Strings(all)
	for i, r := range h.reps {
		if got := r.cl.Members(); !reflect.DeepEqual(got, all) {
			t.Fatalf("replica %d members = %v, want %v", i, got, all)
		}
	}
	for i, r := range survivors {
		if g := r.cl.Generation(); g != 3 {
			t.Fatalf("survivor %d generation = %d, want 3", i, g)
		}
		if g := r.reg.Gauge("cluster.ring.generation").Value(); g != 3 {
			t.Fatalf("survivor %d generation gauge = %g, want 3", i, g)
		}
		if a := r.reg.Gauge("cluster.member.alive").Value(); a != 3 {
			t.Fatalf("survivor %d alive gauge = %g, want 3", i, a)
		}
		if s := r.reg.Gauge("cluster.member.suspect").Value(); s != 0 {
			t.Fatalf("survivor %d suspect gauge = %g, want 0", i, s)
		}
		if d := r.reg.Gauge("cluster.member.dead").Value(); d != 0 {
			t.Fatalf("survivor %d dead gauge = %g, want 0", i, d)
		}
		r.genMu.Lock()
		gens := append([]uint64(nil), r.gens...)
		r.genMu.Unlock()
		if !reflect.DeepEqual(gens, []uint64{2, 3}) {
			t.Fatalf("survivor %d announced generations %v, want [2 3]", i, gens)
		}
		if n := r.reg.Counter("cluster.probe.attempts").Value(); n == 0 {
			t.Fatalf("survivor %d recorded no probe attempts", i)
		}
		if n := r.reg.Counter("cluster.probe.failures").Value(); n == 0 {
			t.Fatalf("survivor %d recorded no probe failures despite a death", i)
		}
	}
	// Per-replica peer accounting holds through the churn.
	for i, r := range h.reps {
		f := r.reg.Counter("serve.peer.forwards").Value()
		ht := r.reg.Counter("serve.peer.hits").Value()
		fb := r.reg.Counter("serve.peer.fallbacks").Value()
		if ht+fb != f {
			t.Fatalf("replica %d: hits %d + fallbacks %d != forwards %d", i, ht, fb, f)
		}
	}
}

// Isolated probe failures — a lossy network, a slow scrape — must never move
// the ring: with an every=3 error schedule at the cluster.probe site no peer
// ever accumulates two consecutive failures, so the detector's hysteresis
// holds every member alive at generation 1 while traffic flows normally.
func TestMembershipProbeChaosNeverFlapsRing(t *testing.T) {
	h := newMemberHarness(t, memberOpts{
		n:          2,
		probers:    true,
		probeChaos: "cluster.probe=error@every=3",
		chaosSeed:  9,
		probe: cluster.ProbeConfig{
			Interval:     10 * time.Millisecond,
			Timeout:      250 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    3,
			ReviveAfter:  2,
			Seed:         11,
		},
	})
	waitForCond(t, "enough probe failures to prove the schedule ran", func() bool {
		for _, r := range h.reps {
			if r.reg.Counter("cluster.probe.failures").Value() < 3 {
				return false
			}
		}
		return true
	})
	spec := h.specsOwnedBy(t, 1, 1)[0]
	mustPlan(t, h.urls[0], spec)
	for i, r := range h.reps {
		if g := r.cl.Generation(); g != 1 {
			t.Fatalf("replica %d generation = %d under isolated probe failures, want 1", i, g)
		}
		if s := r.reg.Gauge("cluster.member.suspect").Value(); s != 0 {
			t.Fatalf("replica %d suspect gauge = %g, want 0", i, s)
		}
		if a := r.reg.Gauge("cluster.member.alive").Value(); a != 2 {
			t.Fatalf("replica %d alive gauge = %g, want 2", i, a)
		}
	}
}

// A planned scale-down (reload removes a still-running member) must be
// remap-safe: the departed member's keys are adopted by their new owners
// through exactly one cache-only previous-owner fetch each — no duplicate
// search anywhere in the cluster, bit-identical answers throughout.
func TestMembershipRemapOneHopOnScaleDown(t *testing.T) {
	h := newMemberHarness(t, memberOpts{n: 3})
	spec := h.specsOwnedBy(t, 2, 1)[0]
	key := spec.CanonicalKey()
	want := referenceResult(t, spec)

	// Warm the key on its owner: one search, cluster-wide.
	src, pr := mustPlan(t, h.urls[2], spec)
	if src != sourceSearch || !reflect.DeepEqual(pr.Result, want) {
		t.Fatalf("owner warmup: source %q, diverged=%t", src, !reflect.DeepEqual(pr.Result, want))
	}

	// Scale down: replicas 0 and 1 reload without replica 2 (which keeps
	// running — a drain, not a crash).
	twoRing := []string{h.urls[0], h.urls[1]}
	for _, i := range []int{0, 1} {
		if err := h.reps[i].cl.Reload(twoRing); err != nil {
			t.Fatal(err)
		}
		if g := h.reps[i].cl.Generation(); g != 2 {
			t.Fatalf("replica %d generation after reload = %d, want 2", i, g)
		}
	}
	newOwner := -1
	for i, u := range twoRing {
		if h.reps[0].cl.Owner(key) == u {
			newOwner = i
		}
	}
	if newOwner == -1 {
		t.Fatalf("key %s owned by no survivor after reload", key)
	}
	other := 1 - newOwner

	// First request on the new owner: one previous-owner fetch adopts the
	// plan from the departed replica's memory — no local search.
	src, pr = mustPlan(t, h.urls[newOwner], spec)
	if src != sourcePeer {
		t.Fatalf("moved key served from %q, want %q (remap fetch)", src, sourcePeer)
	}
	if !reflect.DeepEqual(pr.Result, want) {
		t.Fatal("remap-fetched plan diverged from the reference")
	}
	ownerReg := h.reps[newOwner].reg
	if n := ownerReg.Counter("cluster.remap.fetches").Value(); n != 1 {
		t.Fatalf("cluster.remap.fetches = %d, want 1", n)
	}
	if n := ownerReg.Counter("cluster.remap.hits").Value(); n != 1 {
		t.Fatalf("cluster.remap.hits = %d, want 1", n)
	}
	if n := h.reps[2].reg.Counter("serve.peer.cached.hits").Value(); n != 1 {
		t.Fatalf("departed replica served %d cache-only fetches, want 1", n)
	}

	// The other survivor forwards to the new owner, which now answers from
	// memory; a second request on the new owner is a plain memory hit. The
	// previous-owner hop never repeats.
	src, pr = mustPlan(t, h.urls[other], spec)
	if src != sourcePeer || !reflect.DeepEqual(pr.Result, want) {
		t.Fatalf("other survivor: source %q, want forwarded peer answer", src)
	}
	src, _ = mustPlan(t, h.urls[newOwner], spec)
	if src != sourceMemory {
		t.Fatalf("repeat on new owner served from %q, want memory", src)
	}
	if n := ownerReg.Counter("cluster.remap.fetches").Value(); n != 1 {
		t.Fatalf("cluster.remap.fetches grew to %d, want to stay 1", n)
	}

	// The whole migration cost exactly the one original search.
	var searches int64
	for _, r := range h.reps {
		searches += r.reg.Counter("tileseek.searches").Value()
	}
	if searches != 1 {
		t.Fatalf("cluster ran %d searches across the scale-down, want exactly 1", searches)
	}
}

// When the previous owner has no exact plan, its miss still helps: the 404
// carries its nearest stored recipe, and the new owner's unavoidable local
// search starts warm from it — labelled peer-warm, counted in
// serve.peer.warm_hints.
func TestMembershipRemapMissYieldsPeerWarmHint(t *testing.T) {
	h := newMemberHarness(t, memberOpts{n: 3, stores: true})
	specs := h.specsOwnedBy(t, 2, 2)
	target, neighbour := specs[0], specs[1]

	// The departed owner holds only the neighbour (same workload family,
	// different seq_len) — in memory and, once the async fill lands, on disk.
	mustPlan(t, h.urls[2], neighbour)
	neighbourKey := neighbour.CanonicalKey()
	waitForCond(t, "neighbour plan to reach the owner's store", func() bool {
		_, ok := h.reps[2].st.Get(context.Background(), neighbourKey)
		return ok
	})

	twoRing := []string{h.urls[0], h.urls[1]}
	for _, i := range []int{0, 1} {
		if err := h.reps[i].cl.Reload(twoRing); err != nil {
			t.Fatal(err)
		}
	}
	newOwner := -1
	for i, u := range twoRing {
		if h.reps[0].cl.Owner(target.CanonicalKey()) == u {
			newOwner = i
		}
	}
	if newOwner == -1 {
		t.Fatal("target key owned by no survivor after reload")
	}

	src, pr := mustPlan(t, h.urls[newOwner], target)
	if src != sourcePeerWarm {
		t.Fatalf("remap miss served from %q, want %q", src, sourcePeerWarm)
	}
	if pr.Result.Plan == nil || pr.Result.Degraded {
		t.Fatalf("peer-warm answer unusable: plan=%v degraded=%t", pr.Result.Plan, pr.Result.Degraded)
	}
	ownerReg := h.reps[newOwner].reg
	if n := ownerReg.Counter("serve.peer.warm_hints").Value(); n != 1 {
		t.Fatalf("serve.peer.warm_hints = %d, want 1", n)
	}
	if n := ownerReg.Counter("cluster.remap.fetches").Value(); n != 1 {
		t.Fatalf("cluster.remap.fetches = %d, want 1", n)
	}
	if n := ownerReg.Counter("cluster.remap.hits").Value(); n != 0 {
		t.Fatalf("cluster.remap.hits = %d, want 0 on a miss", n)
	}
	if n := h.reps[2].reg.Counter("serve.peer.cached.misses").Value(); n != 1 {
		t.Fatalf("departed replica counted %d cache-only misses, want 1", n)
	}
	// The hint rode the wire, not the local disk: the new owner's own store
	// had nothing for this family, so a local warm hit would be impossible.
	if n := ownerReg.Counter("serve.warm_hits").Value(); n != 0 {
		t.Fatalf("serve.warm_hits = %d, want 0 (hint must come from the peer)", n)
	}
}
