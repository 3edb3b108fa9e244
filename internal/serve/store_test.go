package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// storeTestServer builds a Server over a disk store at dir. chaosSpec ""
// leaves fault injection off; cold skips the warm-restart preload.
func storeTestServer(t *testing.T, cfg Config, dir string, cold bool, chaosSpec string) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(dir, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	cfg.ColdStart = cold
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	baseCtx := context.Background()
	if chaosSpec != "" {
		inj, err := chaos.Parse(chaosSpec, 42)
		if err != nil {
			t.Fatal(err)
		}
		baseCtx = chaos.With(baseCtx, inj)
	}
	s := New(cfg, reg, baseCtx)
	// Cleanups run last-registered first: the server closes, then its
	// asynchronous store fills drain, then the caller's dir is removed.
	t.Cleanup(s.fills.Wait)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func planSource(t *testing.T, resp *http.Response, data []byte) (PlanResponse, string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if h := resp.Header.Get("X-Plan-Source"); h != pr.Source {
		t.Fatalf("X-Plan-Source header %q disagrees with body source %q", h, pr.Source)
	}
	return pr, pr.Source
}

// The three-tier stack end to end: a fresh spec is searched and filled to
// disk; a restarted (cold) server serves it from disk and promotes it to
// memory; the request after that hits memory. Results are bit-identical at
// every tier.
func TestDiskTierServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	sA, tsA, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody)
	first, source := planSource(t, resp, data)
	if source != sourceSearch {
		t.Fatalf("fresh spec served from %q, want %q", source, sourceSearch)
	}
	sA.fills.Wait()
	if sA.store.Len() != 1 {
		t.Fatalf("store holds %d records after one search, want 1", sA.store.Len())
	}

	// "Restart": a cold server over the same directory. Its memory cache is
	// empty, so the first answer must come from disk — and be promoted.
	sB, tsB, regB := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
	resp, data = post(t, tsB.URL+"/v1/plan", searchPlanBody)
	fromDisk, source := planSource(t, resp, data)
	if source != sourceDisk {
		t.Fatalf("restarted server served from %q, want %q", source, sourceDisk)
	}
	if !fromDisk.Cached {
		t.Fatal("disk hit not reported as cached")
	}
	if fromDisk.Result.Cycles != first.Result.Cycles || fromDisk.Result.Tile != first.Result.Tile {
		t.Fatalf("disk tier mutated the plan:\ngot  %+v\nwant %+v", fromDisk.Result, first.Result)
	}
	if regB.Counter("store.hits").Value() != 1 {
		t.Fatal("disk hit not counted in store.hits")
	}

	resp, data = post(t, tsB.URL+"/v1/plan", searchPlanBody)
	fromMem, source := planSource(t, resp, data)
	if source != sourceMemory {
		t.Fatalf("promoted entry served from %q, want %q", source, sourceMemory)
	}
	if fromMem.Result.Cycles != first.Result.Cycles {
		t.Fatal("memory tier diverged from the original result")
	}
	_ = sB
}

// Warm restart: a warm (default) server preloads the stored working set into
// its memory cache at construction, so the very first request is a memory hit.
func TestWarmRestartSeedsMemoryCache(t *testing.T) {
	dir := t.TempDir()
	sA, tsA, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody)
	first, _ := planSource(t, resp, data)
	sA.fills.Wait()

	sB, tsB, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, false, "")
	if sB.cache.Len() != 1 {
		t.Fatalf("warm server's memory cache holds %d entries, want 1", sB.cache.Len())
	}
	resp, data = post(t, tsB.URL+"/v1/plan", searchPlanBody)
	warm, source := planSource(t, resp, data)
	if source != sourceMemory {
		t.Fatalf("warm-restarted server served from %q, want %q", source, sourceMemory)
	}
	if warm.Result.Cycles != first.Result.Cycles || warm.Result.Tile != first.Result.Tile {
		t.Fatalf("warm-restart answer diverged:\ngot  %+v\nwant %+v", warm.Result, first.Result)
	}
}

// Degraded results never reach the disk: a ladder-degraded answer leaves the
// store empty, and once pressure clears the full-fidelity result is the one
// persisted.
func TestDegradedResultsNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := storeTestServer(t, Config{MaxQueue: 8, WatchdogTimeout: -1}, dir, true, "")

	s.adm.queued.Store(8) // tier 2: heuristic only
	resp, data := post(t, ts.URL+"/v1/plan", searchPlanBody)
	pr, _ := planSource(t, resp, data)
	if !pr.Result.Degraded {
		t.Fatalf("saturated server served undegraded: %+v", pr.Result)
	}
	s.adm.queued.Store(0)
	s.fills.Wait()
	if n := s.store.Len(); n != 0 {
		t.Fatalf("store holds %d records after a degraded answer, want 0", n)
	}

	resp, data = post(t, ts.URL+"/v1/plan", searchPlanBody)
	full, _ := planSource(t, resp, data)
	if full.Result.Degraded {
		t.Fatalf("unloaded server still degraded: %+v", full.Result)
	}
	s.fills.Wait()
	if n := s.store.Len(); n != 1 {
		t.Fatalf("store holds %d records after a clean answer, want 1", n)
	}
}

// Fixed-seed disk-fault chaos through the serving stack: every injected store
// fault yields a correct plan (recomputed) or a clean miss — never a
// corrupted or divergent response — and the directory stays recoverable.
func TestStoreChaosSchedules(t *testing.T) {
	// The fault-free reference server: what every answer must match.
	_, cleanTS, _ := newTestServer(t, Config{WatchdogTimeout: -1})
	resp, data := post(t, cleanTS.URL+"/v1/plan", searchPlanBody)
	want, _ := planSource(t, resp, data)

	schedules := []struct {
		name string
		spec string
		// prime runs a clean pass first so there is a record to fault on.
		prime bool
		// watchdog enables the watchdog (which also bounds the disk read) —
		// needed by the latency schedule; left off elsewhere so responses
		// wait for the real evaluation and its fill is spawned before the
		// response returns (making fills.Wait a reliable barrier).
		watchdog time.Duration
	}{
		{name: "read-error", spec: "store.read=error@every=1@limit=2", prime: true, watchdog: -1},
		{name: "read-latency", spec: "store.read=latency:10s@every=1@limit=1", prime: true, watchdog: 100 * time.Millisecond},
		{name: "write-shortwrite", spec: "store.write=shortwrite@every=1@limit=1", watchdog: -1},
		{name: "fsync-error", spec: "store.fsync=error@every=1@limit=1", watchdog: -1},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			if sc.prime {
				sp, tsp, _ := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
				post(t, tsp.URL+"/v1/plan", searchPlanBody)
				sp.fills.Wait()
			}
			s, ts, reg := storeTestServer(t, Config{
				RequestTimeout:  5 * time.Second,
				WatchdogTimeout: sc.watchdog,
			}, dir, true, sc.spec)

			// Drive the spec through the faulted stack repeatedly. Whatever
			// the injected fault does underneath, the answer on the wire must
			// be the clean server's plan (a disk fault degrades to a miss and
			// a re-search of a deterministic evaluation — same bits).
			for i := 0; i < 3; i++ {
				start := time.Now()
				resp, data := post(t, ts.URL+"/v1/plan", searchPlanBody)
				pr, source := planSource(t, resp, data)
				if pr.Result.Cycles != want.Result.Cycles || pr.Result.Tile != want.Result.Tile {
					t.Fatalf("request %d (source %s): corrupted response under %s:\ngot  %+v\nwant %+v",
						i, source, sc.spec, pr.Result, want.Result)
				}
				if elapsed := time.Since(start); elapsed > 10*time.Second {
					t.Fatalf("request %d took %v — injected disk fault wedged the request path", i, elapsed)
				}
			}
			s.fills.Wait()
			if sc.name == "write-shortwrite" || sc.name == "fsync-error" {
				if reg.Counter("store.put_errors").Value() == 0 {
					t.Fatalf("schedule %s never faulted a fill", sc.spec)
				}
			}

			// "Restart" into a clean server over the same directory. Its boot
			// scan must find no corrupt committed record (torn writes only
			// ever leave temp files, swept as store.recovered, never bad
			// bytes under a live name), and the working set re-commits: a
			// faulted fill was dropped, so the re-search after restart is the
			// retry that lands it durably.
			s2, ts2, reg2 := storeTestServer(t, Config{WatchdogTimeout: -1}, dir, true, "")
			if got := reg2.Counter("store.quarantined").Value(); got != 0 {
				t.Fatalf("%d committed records were corrupt after %s — torn writes reached live names", got, sc.spec)
			}
			if sc.name == "write-shortwrite" && reg2.Counter("store.recovered").Value() == 0 {
				t.Fatal("shortwrite schedule left no torn temp for recovery to sweep")
			}
			resp, data := post(t, ts2.URL+"/v1/plan", searchPlanBody)
			pr, _ := planSource(t, resp, data)
			if pr.Result.Cycles != want.Result.Cycles || pr.Result.Tile != want.Result.Tile {
				t.Fatalf("post-restart answer diverged after %s:\ngot  %+v\nwant %+v", sc.spec, pr.Result, want.Result)
			}
			s2.fills.Wait()

			// Final reopen: the record is durably committed and serves.
			st3, err := store.Open(dir, 0, obs.NewRegistry())
			if err != nil {
				t.Fatalf("reopen after recovery: %v", err)
			}
			if st3.Len() == 0 {
				t.Fatalf("no valid records committed after recovery from %s", sc.spec)
			}
			if _, ok := st3.Get(context.Background(), want.Key); !ok {
				t.Fatalf("recovered store cannot serve the spec planned under %s", sc.spec)
			}
		})
	}
}

// Satellite: the memory cache's occupancy gauge and eviction counter.
func TestCacheSizeGaugeAndEvictionCounter(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{CacheEntries: 2, WatchdogTimeout: -1})
	bodies := []string{
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":2048,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":4096,"system":"unfused"}`,
	}
	for _, body := range bodies {
		if resp, data := post(t, ts.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	if got := reg.Gauge("serve.cache_size").Value(); got != 2 {
		t.Fatalf("serve.cache_size = %v, want 2 (capacity)", got)
	}
	if got := reg.Counter("serve.cache_evictions").Value(); got != 1 {
		t.Fatalf("serve.cache_evictions = %d, want 1", got)
	}
	// The evicted (oldest) spec misses; the survivors hit.
	resp, data := post(t, ts.URL+"/v1/plan", bodies[2])
	pr, _ := planSource(t, resp, data)
	if !pr.Cached {
		t.Fatal("most recent entry was evicted")
	}
}

// Satellite: exact boundary semantics of the degradation ladder's tier
// function. MaxQueue 8: tier 0 holds strictly below half the queue depth,
// tier 1 from half up to (excluding) the full depth, tier 2 at and past it.
func TestDegradeTierBoundaries(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxQueue: 8, WatchdogTimeout: -1})
	for _, tc := range []struct {
		queued int64
		tier   int
	}{
		{0, 0},
		{3, 0},  // last full-fidelity depth: 2*3 < 8
		{4, 1},  // exactly half the cap: first degraded tier
		{7, 1},  // last budget-tier depth
		{8, 2},  // exactly at cap: tier-1 -> tier-2 transition
		{15, 2}, // one below the hard cap: still answering, heuristically
		{16, 2}, // exactly at 2xcap: the ladder still answers; shedding is
		// admission's decision for arrivals beyond this, not the ladder's
	} {
		s.adm.queued.Store(tc.queued)
		if got := s.degradeTier(); got != tc.tier {
			t.Errorf("degradeTier at queued=%d = %d, want %d", tc.queued, got, tc.tier)
		}
	}
	s.adm.queued.Store(0)
}

// Satellite: the ladder edges end to end — a request arriving with the queue
// exactly at cap is answered heuristically (not shed), one arriving past the
// hard cap is shed with 503 — and the serve.degraded.* counter sum equals the
// number of degraded responses on the wire at every edge.
func TestLadderAndShedBoundariesEndToEnd(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      8,
		// Long enough for edge 1's real (heuristic) evaluation even under
		// -race; edge 2's queued-past-deadline arrival rides it into a 504.
		RequestTimeout:  2 * time.Second,
		WatchdogTimeout: -1,
	})
	degradedOnWire := int64(0)

	// Edge 1: queue exactly at cap (8) — tier 2, answered, not shed.
	s.adm.queued.Store(8)
	resp, data := post(t, ts.URL+"/v1/plan", searchPlanBody)
	pr, _ := planSource(t, resp, data)
	if resp.Header.Get("Served-Degraded") != degradeHeuristic {
		t.Fatalf("at-cap arrival: Served-Degraded = %q, want %q", resp.Header.Get("Served-Degraded"), degradeHeuristic)
	}
	if !pr.Result.Degraded {
		t.Fatal("at-cap answer not marked degraded")
	}
	degradedOnWire++
	if sum := degradedCounterSum(reg); sum != degradedOnWire {
		t.Fatalf("counter sum %d != %d degraded responses at the cap edge", sum, degradedOnWire)
	}

	// Edge 2: one slot below the hard cap (15 queued, cap 16), pool wedged.
	// The arrival becomes the 16th waiter — exactly at the hard cap, still
	// queued, not shed — and times out with 504 when no slot frees.
	s.adm.sem <- struct{}{} // wedge the only evaluation slot
	s.adm.queued.Store(15)
	resp, data = post(t, ts.URL+"/v1/plan", `{"arch":"edge","model":"bert","seq_len":2048,"system":"unfused"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hard-cap-edge arrival: status %d (%s), want 504 (queued, then deadline)", resp.StatusCode, data)
	}
	if got := reg.Counter("serve.shed").Value(); got != 0 {
		t.Fatalf("serve.shed = %d after an at-hard-cap arrival, want 0", got)
	}

	// Edge 3: exactly at the hard cap (16 queued) — the next arrival is shed.
	s.adm.queued.Store(16)
	resp, data = post(t, ts.URL+"/v1/plan", `{"arch":"edge","model":"bert","seq_len":4096,"system":"unfused"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("past-hard-cap arrival: status %d (%s), want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := reg.Counter("serve.shed").Value(); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}

	// Errors carry no Served-Degraded header and bump no degraded counter:
	// the sum invariant still holds after both error edges.
	if sum := degradedCounterSum(reg); sum != degradedOnWire {
		t.Fatalf("counter sum %d != %d degraded responses after the shed edges", sum, degradedOnWire)
	}
	<-s.adm.sem
	s.adm.queued.Store(0)
}
