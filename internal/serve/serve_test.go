package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/obs"
)

// fastPlanBody is a spec cheap enough to evaluate in every test: the unfused
// baseline needs no tile search at all.
const fastPlanBody = `{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := New(cfg, reg, context.Background())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestPlanEndpointServesRepeatsFromCache(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, data)
	}
	var first PlanResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	if first.Result.System != "unfused" || first.Result.Cycles <= 0 {
		t.Fatalf("implausible result: %+v", first.Result)
	}

	resp, data = post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", resp.StatusCode, data)
	}
	var second PlanResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from cache")
	}
	if second.Result.Cycles != first.Result.Cycles || second.Result.Tile != first.Result.Tile {
		t.Fatalf("cached result drifted:\n%+v\nvs\n%+v", second.Result, first.Result)
	}
	if second.Key != first.Key {
		t.Fatalf("canonical keys differ: %q vs %q", second.Key, first.Key)
	}
	if hits := reg.Counter("serve.cache_hits").Value(); hits != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", hits)
	}
	if misses := reg.Counter("serve.cache_misses").Value(); misses != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", misses)
	}
}

// Specs that spell the default batch explicitly must key (and hence cache)
// identically to specs that leave it zero.
func TestPlanEndpointCanonicalisesDefaults(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/plan", fastPlanBody)
	resp, data := post(t, ts.URL+"/v1/plan",
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","batch":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Cached {
		t.Fatal("explicit-default batch missed the cache")
	}
	if misses := reg.Counter("serve.cache_misses").Value(); misses != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", misses)
	}
}

func TestPlanEndpointStatusMapping(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxSeqLen: 4096})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"arch":`, http.StatusBadRequest},
		{"wrong type", `{"arch":"edge","model":"bert","seq_len":"big","system":"unfused"}`, http.StatusBadRequest},
		{"unknown field", `{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","arch_file":"/etc/passwd"}`, http.StatusBadRequest},
		{"trailing garbage", fastPlanBody + `{"again":true}`, http.StatusBadRequest},
		{"unknown arch", `{"arch":"tpu","model":"bert","seq_len":1024,"system":"unfused"}`, http.StatusBadRequest},
		{"unknown model", `{"arch":"edge","model":"gpt9","seq_len":1024,"system":"unfused"}`, http.StatusBadRequest},
		{"unknown system", `{"arch":"edge","model":"bert","seq_len":1024,"system":"magic"}`, http.StatusBadRequest},
		{"non-positive seq", `{"arch":"edge","model":"bert","seq_len":0,"system":"unfused"}`, http.StatusBadRequest},
		{"seq over server cap", `{"arch":"edge","model":"bert","seq_len":8192,"system":"unfused"}`, http.StatusBadRequest},
		{"budget over server cap", `{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":1000000}`, http.StatusBadRequest},
		{"negative batch", `{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","batch":-1}`, http.StatusBadRequest},
		{"negative seq", `{"arch":"edge","model":"bert","seq_len":-1,"system":"unfused"}`, http.StatusBadRequest},
		{"negative budget", `{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","search_budget":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/plan", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("error body is not JSON: %s", data)
			}
			if er.Status != tc.want || er.Error == "" {
				t.Fatalf("error body = %+v", er)
			}
		})
	}

	t.Run("GET not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/plan")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// An expired server-side deadline surfaces as 504 through the ErrCanceled
// mapping.
func TestPlanEndpointDeadlineMapsTo504(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, data := post(t, ts.URL+"/v1/plan",
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":4}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, data)
	}
}

// A saturated pool with queueing disabled sheds instantly: 503 with a
// Retry-After header, and the serve.shed counter accounts it.
func TestPlanEndpointShedsWhenSaturated(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	// Occupy the only evaluation slot directly; the next uncached request
	// must be shed rather than queued.
	s.adm.sem <- struct{}{}
	defer func() { <-s.adm.sem }()
	resp, data := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	if shed := reg.Counter("serve.shed").Value(); shed != 1 {
		t.Fatalf("serve.shed = %d, want 1", shed)
	}
}

func TestCompareEndpointSharesCacheWithPlan(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	// Seed the unfused cell through /v1/plan; the compare then gets it for
	// free and fills the other four.
	post(t, ts.URL+"/v1/plan", `{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","search_budget":4}`)
	resp, data := post(t, ts.URL+"/v1/compare",
		`{"arch":"edge","model":"bert","seq_len":1024,"search_budget":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr CompareResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(cr.Results))
	}
	if cr.Results[0].System != "unfused" {
		t.Fatalf("first system = %q, want unfused (comparison order)", cr.Results[0].System)
	}
	if cr.CachedResults != 1 {
		t.Fatalf("cached_results = %d, want 1 (the seeded unfused cell)", cr.CachedResults)
	}
	// A repeated compare is answered fully from cache.
	resp, data = post(t, ts.URL+"/v1/compare",
		`{"arch":"edge","model":"bert","seq_len":1024,"search_budget":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, data)
	}
	var again CompareResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if again.CachedResults != 5 {
		t.Fatalf("repeat cached_results = %d, want 5", again.CachedResults)
	}
}

// Liveness and readiness split: /healthz stays 200 while draining (the
// process is shutting down deliberately, not stuck — restarting it would be
// wrong), while /readyz flips to 503 so load balancers stop routing.
func TestHealthzLivenessAndReadyzDraining(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	resp, data := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Fatalf("healthy healthz = %d %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Fatalf("healthy readyz = %d %s", resp.StatusCode, data)
	}
	s.draining.Store(true)
	resp, data = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d %s, want 200 (liveness is not readiness)", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(data, []byte(`"draining"`)) {
		t.Fatalf("draining readyz = %d %s", resp.StatusCode, data)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestMetricsEndpointTextAndJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/plan", fastPlanBody)

	resp, data := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text metrics status %d", resp.StatusCode)
	}
	for _, name := range []string{"serve.cache_misses", "serve.http.requests"} {
		if !bytes.Contains(data, []byte(name)) {
			t.Fatalf("text metrics missing %s:\n%s", name, data)
		}
	}

	resp, data = get(t, ts.URL+"/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json metrics status %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("json metrics unparseable: %v\n%s", err, data)
	}
	if snap.Counters["serve.cache_misses"] != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", snap.Counters["serve.cache_misses"])
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, data := get(t, ts.URL+"/debug/trace?arch=edge&model=bert&seq=1024&epochs=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace not a JSON event array: %v", err)
	}
	resp, _ = get(t, ts.URL+"/debug/trace?arch=edge&model=bert&seq=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seq status = %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/debug/trace?arch=edge&model=bert&seq=1024&epochs=9999")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad epochs status = %d, want 400", resp.StatusCode)
	}
}

// Serve drains gracefully: a request in flight when shutdown starts still
// completes, and Serve returns cleanly afterwards.
func TestServeGracefulShutdownDrainsInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{DrainTimeout: 30 * time.Second}, reg, context.Background())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	// A search-backed request that takes long enough to still be in flight
	// when shutdown starts.
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(
			`{"arch":"edge","model":"bert","seq_len":4096,"system":"transfusion","search_budget":48}`))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	// Let the request reach the server, then start the drain.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// Serve must block until the drain finishes: by the time it returns, the
	// in-flight evaluation (seconds of search) has completed and its response
	// is on the wire, so the client observes it almost immediately. A short
	// window here catches a Serve that returns while Shutdown is still
	// draining.
	select {
	case code := <-reqDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve returned before the in-flight request completed")
	}
	if !s.draining.Load() {
		t.Fatal("server did not mark itself draining")
	}
}
