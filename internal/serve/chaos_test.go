package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// The chaos suite runs the real daemon under seeded fault schedules and holds
// it to the serving invariants:
//
//   - every request terminates with a status from the faults mapping
//     (200/400/422/500/503/504) — never a hung connection or a torn reply;
//   - the sum of the serve.degraded.* counters equals the number of
//     responses that carried a Served-Degraded header;
//   - the plan cache is never poisoned: once a schedule's fault budget is
//     exhausted, every spec evaluates to exactly the result a fault-free
//     server produces;
//   - no goroutine leaks (per-schedule below, and package-wide via
//     TestMain's chaos.LeakCheckMain).

// chaosTestServer builds a Server whose base context carries a fault injector
// parsed from spec (seeded, so every run replays the same schedule).
func chaosTestServer(t *testing.T, cfg Config, spec string, seed uint64) (*Server, *httptest.Server, *obs.Registry, *chaos.Injector) {
	t.Helper()
	inj, err := chaos.Parse(spec, seed)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	reg := obs.NewRegistry()
	s := New(cfg, reg, chaos.With(context.Background(), inj))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg, inj
}

// degradedCounterSum adds up every serve.degraded.* counter.
func degradedCounterSum(reg *obs.Registry) int64 {
	var sum int64
	for _, mode := range []string{degradeBudget, degradeHeuristic, degradeWatchdog, degradeSearch} {
		sum += reg.Counter("serve.degraded." + mode).Value()
	}
	return sum
}

// validStatuses is the complete set of statuses the faults mapping can
// produce for /v1/plan.
var validStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusUnprocessableEntity: true,
	http.StatusInternalServerError: true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// chaosSpecs is the workload mix each schedule drives: distinct cache keys,
// cheap evaluations, one search-backed spec.
var chaosSpecs = []string{
	`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}`,
	`{"arch":"edge","model":"bert","seq_len":2048,"system":"unfused"}`,
	`{"arch":"edge","model":"bert","seq_len":1024,"system":"flat"}`,
	`{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":4}`,
}

func TestChaosSchedules(t *testing.T) {
	schedules := []struct {
		name string
		spec string
		site string
		cfg  Config
	}{
		{
			// Injected leader latency with a short watchdog: stuck
			// evaluations come back as degraded heuristic answers, the
			// stalled leaders finish in the background.
			name: "latency",
			spec: "serve.cache.leader=latency:300ms@every=2@limit=4",
			site: chaos.SiteServeCacheLeader,
			cfg:  Config{RequestTimeout: 5 * time.Second, WatchdogTimeout: 40 * time.Millisecond},
		},
		{
			// Injected leader panics must surface as mapped 500s — for the
			// leader and every coalesced joiner — never kill the process or
			// tear the connection.
			name: "panic",
			spec: "serve.cache.leader=panic@every=3@limit=5",
			site: chaos.SiteServeCacheLeader,
			cfg:  Config{RequestTimeout: 5 * time.Second, WatchdogTimeout: -1},
		},
		{
			// Injected cancellation maps to 504 through the ErrCanceled
			// classification.
			name: "cancel",
			spec: "serve.cache.leader=cancel@every=3@limit=5",
			site: chaos.SiteServeCacheLeader,
			cfg:  Config{RequestTimeout: 5 * time.Second, WatchdogTimeout: -1},
		},
		{
			// Injected errors inside the tile search: the pipeline degrades
			// to the heuristic tile, so these surface as 200s with a
			// Served-Degraded: search header, not as errors.
			name: "search-fault",
			spec: "tileseek.rollout=error@every=2@limit=3",
			site: chaos.SiteTileseekRollout,
			cfg:  Config{RequestTimeout: 5 * time.Second, WatchdogTimeout: -1},
		},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			_, ts, reg, inj := chaosTestServer(t, sc.cfg, sc.spec, 42)

			type reply struct {
				status   int
				degraded string
			}
			const workers, perWorker = 4, 6
			replies := make([]reply, 0, workers*perWorker)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						body := chaosSpecs[(w+i)%len(chaosSpecs)]
						resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
						if err != nil {
							t.Errorf("worker %d request %d: transport error %v", w, i, err)
							return
						}
						var pr PlanResponse
						json.NewDecoder(resp.Body).Decode(&pr) //nolint:errcheck
						resp.Body.Close()
						mu.Lock()
						replies = append(replies, reply{resp.StatusCode, resp.Header.Get("Served-Degraded")})
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()

			if inj.Fires(sc.site) == 0 {
				t.Fatalf("schedule %q never fired at %s", sc.spec, sc.site)
			}
			degradedResponses := int64(0)
			for i, r := range replies {
				if !validStatuses[r.status] {
					t.Errorf("reply %d: unmapped status %d", i, r.status)
				}
				if r.degraded != "" {
					degradedResponses++
					if r.status != http.StatusOK {
						t.Errorf("reply %d: Served-Degraded %q on a %d", i, r.degraded, r.status)
					}
				}
			}
			if sum := degradedCounterSum(reg); sum != degradedResponses {
				t.Errorf("serve.degraded.* sum = %d, but %d responses carried Served-Degraded", sum, degradedResponses)
			}

			// Poison check: the schedules' fault budgets (@limit) are spent,
			// so every spec now evaluates cleanly — and must match a
			// fault-free server bit for bit, cached entries included.
			cleanReg := obs.NewRegistry()
			clean := New(sc.cfg, cleanReg, context.Background())
			cleanTS := httptest.NewServer(clean.Handler())
			defer cleanTS.Close()
			for _, body := range chaosSpecs {
				got := planResult(t, ts.URL, body)
				want := planResult(t, cleanTS.URL, body)
				if got.Cycles != want.Cycles || got.Tile != want.Tile {
					t.Errorf("post-chaos result for %s diverged from clean server:\ngot  %+v\nwant %+v", body, got, want)
				}
			}

			// Every schedule ends with the evaluator pool quiet: close both
			// servers first (Close is idempotent — the t.Cleanup re-close is a
			// no-op) so only genuinely leaked goroutines remain, with a grace
			// window for leaders still finishing in the background.
			cleanTS.Close()
			ts.Close()
			http.DefaultClient.CloseIdleConnections()
			if err := chaos.CheckLeaks(10 * time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

// planResult posts body to /v1/plan until it answers a full-fidelity 200 —
// a leftover injected fault surfaces as 5xx, and a watchdog fallback carries
// Served-Degraded while the stuck leader is still finishing; both must clear
// within a few retries once the fault budget is spent.
func planResult(t *testing.T, baseURL, body string) (out struct {
	Cycles float64
	Tile   string
}) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		resp, data := post(t, baseURL+"/v1/plan", body)
		if resp.StatusCode == http.StatusOK && resp.Header.Get("Served-Degraded") == "" {
			var pr PlanResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				t.Fatalf("bad 200 body: %v", err)
			}
			out.Cycles = pr.Result.Cycles
			out.Tile = pr.Result.Tile
			return out
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("no full-fidelity 200 for %s after retries", body)
	return out
}

// A drain started while injected faults are in flight still completes: every
// outstanding request terminates with a mapped status and Serve returns
// within the drain timeout.
func TestServeDrainsUnderInjection(t *testing.T) {
	inj, err := chaos.Parse("serve.cache.leader=latency:150ms@every=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Config{
		RequestTimeout:  5 * time.Second,
		DrainTimeout:    20 * time.Second,
		WatchdogTimeout: -1,
		ReadyDelay:      300 * time.Millisecond,
	}, reg, chaos.With(context.Background(), inj))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(sctx, l) }()
	url := "http://" + l.Addr().String()

	statuses := make(chan int, len(chaosSpecs))
	for _, body := range chaosSpecs {
		go func(body string) {
			resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(body)
	}
	time.Sleep(50 * time.Millisecond) // let the requests reach the injected leaders
	cancel()

	// Readiness flips before the listener closes (the ReadyDelay window).
	flipped := false
	for i := 0; i < 20 && !flipped; i++ {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			break // listener already closed — the flip happened before this
		}
		flipped = resp.StatusCode == http.StatusServiceUnavailable
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Error("readyz never reported draining before the listener closed")
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	for range chaosSpecs {
		st := <-statuses
		if st == -1 || !validStatuses[st] {
			t.Errorf("in-flight request under injection finished with %d", st)
		}
	}
}
