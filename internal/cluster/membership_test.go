package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// newTestCluster builds a 3-member cluster (self = a) with the default
// hysteresis thresholds: 2 consecutive failures to suspect, 4 to dead, 2
// successes to revive.
func newTestCluster(t *testing.T, reg *obs.Registry) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:    "http://a:1",
		Peers:   []string{"http://a:1", "http://b:1", "http://c:1"},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The detector must walk alive -> suspect -> dead on consecutive failures,
// rebuild the ring only at the dead boundary, and resurrect after consecutive
// successes — with the generation counting exactly the two boundary events.
func TestHysteresisLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, reg)
	b := "http://b:1"
	if got := c.Generation(); got != 1 {
		t.Fatalf("initial generation = %d, want 1", got)
	}

	c.ReportProbe(b, false, time.Second)
	if st := c.State(b); st != StateAlive {
		t.Fatalf("after 1 failure state = %v, want alive (hysteresis)", st)
	}
	c.ReportProbe(b, false, time.Second)
	if st := c.State(b); st != StateSuspect {
		t.Fatalf("after 2 failures state = %v, want suspect", st)
	}
	// Suspect keeps ownership: the ring and generation must not move.
	if got := c.Generation(); got != 1 {
		t.Fatalf("suspect bumped generation to %d", got)
	}
	if len(c.Members()) != 3 {
		t.Fatalf("suspect member left the ring: %v", c.Members())
	}

	c.ReportProbe(b, false, time.Second)
	c.ReportProbe(b, false, time.Second)
	if st := c.State(b); st != StateDead {
		t.Fatalf("after 4 failures state = %v, want dead", st)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("death generation = %d, want 2", got)
	}
	if m := c.Members(); len(m) != 2 || m[0] != "http://a:1" || m[1] != "http://c:1" {
		t.Fatalf("dead member still owns keys: %v", m)
	}
	if v := reg.Gauge("cluster.member.dead").Value(); v != 1 {
		t.Fatalf("cluster.member.dead = %v, want 1", v)
	}

	c.ReportProbe(b, true, time.Millisecond)
	if st := c.State(b); st != StateDead {
		t.Fatalf("one success resurrected a dead peer (state %v)", st)
	}
	c.ReportProbe(b, true, time.Millisecond)
	if st := c.State(b); st != StateAlive {
		t.Fatalf("after 2 successes state = %v, want alive", st)
	}
	if got := c.Generation(); got != 3 {
		t.Fatalf("resurrection generation = %d, want 3", got)
	}
	if len(c.Members()) != 3 {
		t.Fatalf("revived member missing from ring: %v", c.Members())
	}
	if v := reg.Gauge("cluster.ring.generation").Value(); v != 3 {
		t.Fatalf("cluster.ring.generation gauge = %v, want 3", v)
	}
}

// Alternating failure/success — one slow scrape at a time — must never move
// the state machine past alive: hysteresis requires *consecutive* failures.
func TestSingleFailuresCannotFlapRing(t *testing.T) {
	c := newTestCluster(t, nil)
	b := "http://b:1"
	for i := 0; i < 50; i++ {
		c.ReportProbe(b, false, time.Second)
		c.ReportProbe(b, true, time.Millisecond)
	}
	if st := c.State(b); st != StateAlive {
		t.Fatalf("alternating outcomes left state %v, want alive", st)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("alternating outcomes bumped generation to %d", got)
	}
}

// Ring-generation edge cases around Reload: an empty list degrades to
// single-node mode, a list without self is rejected with the ring unchanged,
// and identical back-to-back reloads coalesce into zero rebuilds.
func TestReloadEdgeCases(t *testing.T) {
	c := newTestCluster(t, nil)

	// Self missing: clear error, ring untouched.
	err := c.Reload([]string{"http://b:1", "http://c:1"})
	if err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("reload without self: err = %v, want mention of self", err)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("rejected reload bumped generation to %d", got)
	}
	if len(c.Members()) != 3 {
		t.Fatalf("rejected reload changed members: %v", c.Members())
	}

	// Identical list: coalesces, no rebuild.
	if err := c.Reload([]string{"http://a:1", "http://b:1", "http://c:1"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("identical reload bumped generation to %d", got)
	}

	// Empty list: single-node mode, one rebuild.
	if err := c.Reload(nil); err != nil {
		t.Fatal(err)
	}
	if m := c.Members(); len(m) != 1 || m[0] != "http://a:1" {
		t.Fatalf("empty reload members = %v, want just self", m)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("single-node reload generation = %d, want 2", got)
	}
	for _, k := range testKeys(50, 3) {
		if !c.IsSelf(c.Owner(k)) {
			t.Fatalf("single-node mode gave key %q to %q", k, c.Owner(k))
		}
	}

	// Growing back: new peers join alive.
	if err := c.Reload([]string{"http://a:1", "http://d:1"}); err != nil {
		t.Fatal(err)
	}
	if st := c.State("http://d:1"); st != StateAlive {
		t.Fatalf("new peer state = %v, want alive", st)
	}
	if got := c.Generation(); got != 3 {
		t.Fatalf("rejoin generation = %d, want 3", got)
	}
}

// PrevOwner must answer only for keys whose ownership actually moved in the
// last generation, and name the previous ring's owner.
func TestPrevOwnerTracksLastGeneration(t *testing.T) {
	c := newTestCluster(t, nil)
	b := "http://b:1"
	if got := c.PrevOwner("any"); got != "" {
		t.Fatalf("PrevOwner before any reconfiguration = %q, want empty", got)
	}

	keys := testKeys(300, 9)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = c.Owner(k)
	}
	for i := 0; i < 4; i++ {
		c.ReportProbe(b, false, time.Second)
	}
	if c.State(b) != StateDead {
		t.Fatal("setup: b not dead")
	}
	moved := 0
	for _, k := range keys {
		prev := c.PrevOwner(k)
		if before[k] == c.Owner(k) {
			if prev != "" {
				t.Fatalf("unmoved key %q has PrevOwner %q", k, prev)
			}
			continue
		}
		moved++
		if prev != b {
			t.Fatalf("moved key %q: PrevOwner = %q, want %q", k, prev, b)
		}
	}
	if moved == 0 {
		t.Fatal("no key moved when a member died; test is vacuous")
	}
}

// PeerTimeout: flat for healthy peers (a fetch legitimately rides the
// owner's full search), clamped once the probe EWMA shows the peer slow or
// the detector has it past alive.
func TestPeerTimeoutClamp(t *testing.T) {
	c, err := New(Config{
		Self:         "http://a:1",
		Peers:        []string{"http://a:1", "http://b:1"},
		FetchTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := "http://b:1"
	if got := c.PeerTimeout(b); got != 10*time.Second {
		t.Fatalf("no samples: PeerTimeout = %v, want flat 10s", got)
	}
	c.ReportProbe(b, true, 2*time.Millisecond)
	if got := c.PeerTimeout(b); got != 10*time.Second {
		t.Fatalf("fast healthy peer: PeerTimeout = %v, want flat 10s", got)
	}
	// Drive the EWMA up with slow-but-successful probes: still alive, but the
	// clamp must engage well below the flat timeout.
	for i := 0; i < 20; i++ {
		c.ReportProbe(b, true, 900*time.Millisecond)
	}
	got := c.PeerTimeout(b)
	if got >= 10*time.Second || got < 250*time.Millisecond {
		t.Fatalf("slow alive peer: PeerTimeout = %v, want clamped into [250ms, 10s)", got)
	}
	// A suspect peer with a fast historical EWMA clamps to the floor region.
	c2 := newTestCluster(t, nil)
	c2.ReportProbe("http://b:1", true, time.Millisecond)
	c2.ReportProbe("http://b:1", false, time.Millisecond)
	c2.ReportProbe("http://b:1", false, time.Millisecond)
	if c2.State("http://b:1") != StateSuspect {
		t.Fatal("setup: not suspect")
	}
	if got := c2.PeerTimeout("http://b:1"); got >= c2.FetchTimeout() {
		t.Fatalf("suspect peer kept the flat timeout %v", got)
	}
}

// Ownership reads race ring rebuilds under -race: the atomic view swap must
// never expose a torn ring (an owner outside the member set) and the
// generation must be monotone.
func TestConcurrentReloadAndOwnershipReads(t *testing.T) {
	c := newTestCluster(t, nil)
	keys := testKeys(64, 11)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen := c.Generation()
				if gen < lastGen {
					t.Error("generation went backwards")
					return
				}
				lastGen = gen
				// Owner and Members are read from one view, so an owner
				// outside the member set is a torn ring, not a later reload.
				v := c.cur.Load()
				members := map[string]bool{}
				for _, m := range v.ring.Members() {
					members[m] = true
				}
				for _, k := range keys {
					if o := v.ring.Owner(k); o != "" && !members[o] {
						t.Errorf("owner %q outside member set", o)
						return
					}
				}
			}
		}()
	}
	lists := [][]string{
		{"http://a:1", "http://b:1", "http://c:1"},
		{"http://a:1", "http://b:1"},
		{"http://a:1", "http://b:1", "http://c:1", "http://d:1"},
		{"http://a:1"},
	}
	for i := 0; i < 200; i++ {
		if err := c.Reload(lists[i%len(lists)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// The prober against real listeners: a peer whose /readyz starts failing is
// walked to dead and out of the ring; when it answers again it is revived
// and readmitted. OnChange observes exactly the two boundary generations.
func TestProberDetectsDeathAndResurrection(t *testing.T) {
	var sick atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	var gens []uint64
	var gensMu sync.Mutex
	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://self:1", peer.URL},
		Metrics:       reg,
		ProbeInterval: 15 * time.Millisecond,
		ProbeSeed:     7,
		OnChange: func(gen uint64, members []string) {
			gensMu.Lock()
			gens = append(gens, gen)
			gensMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := c.StartProber(ctx)
	defer p.Stop()
	if again := c.StartProber(ctx); again != p {
		t.Fatal("second StartProber built a second prober")
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor("first successful probes", func() bool {
		return reg.Counter("cluster.probe.attempts").Value() >= 2
	})
	if c.State(peer.URL) != StateAlive {
		t.Fatalf("healthy peer state = %v", c.State(peer.URL))
	}

	sick.Store(true)
	waitFor("death", func() bool { return c.State(peer.URL) == StateDead })
	if len(c.Members()) != 1 {
		t.Fatalf("dead peer still in ring: %v", c.Members())
	}

	sick.Store(false)
	waitFor("resurrection", func() bool { return c.State(peer.URL) == StateAlive })
	if len(c.Members()) != 2 {
		t.Fatalf("revived peer not readmitted: %v", c.Members())
	}

	gensMu.Lock()
	got := append([]uint64(nil), gens...)
	gensMu.Unlock()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("OnChange generations = %v, want [2 3]", got)
	}
}

// The cluster.probe chaos site must drive the same lifecycle without any
// real failure: an error schedule striking every probe kills the peer; the
// schedule's @limit exhausting resurrects it.
func TestProberChaosSiteDrivesLifecycle(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	inj, err := chaos.Parse("cluster.probe=error@limit=6", 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://self:1", peer.URL},
		ProbeInterval: 15 * time.Millisecond,
		ProbeSeed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := c.StartProber(chaos.With(ctx, inj))
	defer p.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for c.State(peer.URL) != StateDead {
		if time.Now().After(deadline) {
			t.Fatal("injected probe errors never killed the peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for c.State(peer.URL) != StateAlive {
		if time.Now().After(deadline) {
			t.Fatal("peer never revived after the chaos budget drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A reload that drops a peer must stop its probe loop (no leaked goroutines
// probing ex-members) and re-adding it must resume probing.
func TestProberFollowsReloads(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://self:1", peer.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeSeed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := c.StartProber(ctx)
	defer p.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for hits.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("prober never reached the peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Reload([]string{"http://self:1"}); err != nil {
		t.Fatal(err)
	}
	// Give in-flight probes a moment to finish, then verify probing stopped.
	time.Sleep(50 * time.Millisecond)
	base := hits.Load()
	time.Sleep(100 * time.Millisecond)
	if hits.Load() > base+1 {
		t.Fatalf("dropped peer still being probed (%d -> %d)", base, hits.Load())
	}
	if err := c.Reload([]string{"http://self:1", peer.URL}); err != nil {
		t.Fatal(err)
	}
	rejoined := hits.Load()
	for hits.Load() == rejoined {
		if time.Now().After(deadline) {
			t.Fatal("probing never resumed after the peer rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Replicas share a jitter seed (the daemon passes -chaos-seed, default 1),
// so the seed alone cannot spread them out: two replicas probing the same
// peer must still follow different gap sequences, while one replica's
// sequence stays deterministic.
func TestProberJitterDiffersPerReplica(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	delays := func(self string) []time.Duration {
		c, err := New(Config{Self: self, Peers: peers, ProbeSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := &Prober{c: c}
		seq := make([]time.Duration, 8)
		for n := range seq {
			seq[n] = p.delay("http://c:1", n)
		}
		return seq
	}
	a, b := delays("http://a:1"), delays("http://b:1")
	if !slices.Equal(a, delays("http://a:1")) {
		t.Fatal("one replica's probe delays are not deterministic")
	}
	same := 0
	for n := range a {
		if a[n] == b[n] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("replicas a and b share %d of %d probe delays to c: %v vs %v", same, len(a), a, b)
	}
}

// CanFetch gates who a cache-only fetch may target: configured members that
// are not dead, plus — the scale-down grace window — members the latest
// reload removed, for as long as they remain in the previous ring. One more
// generation ends the grace.
func TestCanFetchGraceForDepartedMembers(t *testing.T) {
	c := newTestCluster(t, nil)
	a, b, cc := "http://a:1", "http://b:1", "http://c:1"

	if c.CanFetch(a) {
		t.Fatal("self must never be fetchable")
	}
	if c.CanFetch("") {
		t.Fatal("empty peer must never be fetchable")
	}
	if !c.CanFetch(b) || !c.CanFetch(cc) {
		t.Fatal("configured alive peers must be fetchable")
	}
	if c.CanFetch("http://stranger:1") {
		t.Fatal("an unconfigured stranger must not be fetchable")
	}

	// Scale down: b leaves the configured set but stays in the previous
	// ring, so its warm caches remain reachable for the remap protocol.
	if err := c.Reload([]string{a, cc}); err != nil {
		t.Fatal(err)
	}
	if !c.CanFetch(b) {
		t.Fatal("freshly departed member must stay fetchable for one generation")
	}
	if !c.CanFetch(cc) {
		t.Fatal("remaining member must stay fetchable")
	}

	// Next generation: the grace window closes.
	if err := c.Reload([]string{a}); err != nil {
		t.Fatal(err)
	}
	if c.CanFetch(b) {
		t.Fatal("departed member must stop being fetchable after a further generation")
	}

	// A dead configured member is never fetchable.
	c2 := newTestCluster(t, nil)
	for i := 0; i < 4; i++ {
		c2.ReportProbe(b, false, time.Millisecond)
	}
	if c2.State(b) != StateDead {
		t.Fatalf("state after 4 failures = %v, want dead", c2.State(b))
	}
	if c2.CanFetch(b) {
		t.Fatal("dead member must not be fetchable")
	}
}
