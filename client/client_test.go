// These tests live in an external package (with a dot-import for brevity)
// because they exercise the client against a real serve.Server — and serve
// now imports client for its cluster peer tier, which would be an import
// cycle from an in-package test.
package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	. "github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/serve"
)

// fastOpts keeps test retries quick and deterministic.
func fastOpts() Options {
	return Options{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
	}
}

// The client round-trips against the real serving layer: plan, compare, and
// both health endpoints.
func TestClientAgainstRealServer(t *testing.T) {
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{}, reg, context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	ctx := context.Background()
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	pr, err := c.Plan(ctx, PlanRequest{Arch: "edge", Model: "bert", SeqLen: 1024, System: "unfused"})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if pr.Result.System != "unfused" || pr.Result.Cycles <= 0 {
		t.Fatalf("implausible plan result: %+v", pr.Result)
	}
	if pr.ServedDegraded != "" {
		t.Fatalf("unloaded server served degraded: %q", pr.ServedDegraded)
	}
	again, err := c.Plan(ctx, PlanRequest{Arch: "edge", Model: "bert", SeqLen: 1024, System: "unfused"})
	if err != nil {
		t.Fatalf("Plan again: %v", err)
	}
	if !again.Cached || again.Result.Cycles != pr.Result.Cycles {
		t.Fatalf("repeat plan not served from cache: %+v", again)
	}
	cr, err := c.Compare(ctx, CompareRequest{Arch: "edge", Model: "bert", SeqLen: 1024, SearchBudget: 4})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(cr.Results) != 5 {
		t.Fatalf("compare results = %d, want 5", len(cr.Results))
	}
}

// A 4xx is a deterministic outcome: surfaced as a typed permanent APIError,
// never retried.
func TestClientDoesNotRetryCallerErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec","status":400}`)) //nolint:errcheck
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	_, err := c.Plan(context.Background(), PlanRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError with 400", err)
	}
	if apiErr.Temporary() {
		t.Fatal("400 reported Temporary")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retries on 4xx)", got)
	}
}

// Transient 5xx responses are retried with backoff until the server recovers.
func TestClientRetriesTransientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"overloaded","status":503}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"result":{"System":"unfused","Cycles":1},"cached":false,"key":"k"}`)) //nolint:errcheck
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	pr, err := c.Plan(context.Background(), PlanRequest{})
	if err != nil {
		t.Fatalf("Plan after transient 503s: %v", err)
	}
	if pr.Result.Cycles != 1 {
		t.Fatalf("unexpected result: %+v", pr.Result)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s then success)", got)
	}
}

// The server's Retry-After floor is honoured: with a 1-second hint the retry
// cannot arrive earlier.
func TestClientHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			secondAt.Store(time.Now().UnixNano())
			w.Write([]byte(`{"result":{},"cached":false,"key":"k"}`)) //nolint:errcheck
		}
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	if _, err := c.Plan(context.Background(), PlanRequest{}); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if gap := time.Duration(secondAt.Load() - firstAt.Load()); gap < time.Second {
		t.Fatalf("retry arrived %v after the 503, before the 1s Retry-After", gap)
	}
}

// After threshold consecutive 5xx the breaker opens and fails fast without
// touching the network; after the cooldown a half-open probe closes it again.
func TestClientCircuitBreaker(t *testing.T) {
	var calls atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"boom","status":500}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"result":{},"cached":false,"key":"k"}`)) //nolint:errcheck
	}))
	defer ts.Close()

	opts := fastOpts()
	opts.MaxRetries = 2 // 3 attempts per call
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = 50 * time.Millisecond
	c := New(ts.URL, opts)
	ctx := context.Background()

	// First call: 3 attempts, all 500 — trips the breaker exactly at the
	// threshold.
	if _, err := c.Plan(ctx, PlanRequest{}); err == nil {
		t.Fatal("failing server produced no error")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Second call: breaker is open — fails fast, no network traffic.
	if _, err := c.Plan(ctx, PlanRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("open breaker let a request through (%d calls)", got)
	}
	// After the cooldown the half-open probe goes through; the server has
	// recovered, so the probe succeeds and the breaker closes.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Plan(ctx, PlanRequest{}); err != nil {
		t.Fatalf("post-cooldown probe failed: %v", err)
	}
	if _, err := c.Plan(ctx, PlanRequest{}); err != nil {
		t.Fatalf("closed breaker rejected a request: %v", err)
	}
}

// A hedged plan lookup returns as soon as either attempt answers: a stalled
// first request does not hold the response hostage.
func TestClientHedgingTrimsTailLatency(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First attempt stalls until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`{"result":{},"cached":true,"key":"k"}`)) //nolint:errcheck
	}))
	defer ts.Close()
	defer close(release)

	opts := fastOpts()
	opts.HedgeDelay = 20 * time.Millisecond
	c := New(ts.URL, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	pr, err := c.Plan(ctx, PlanRequest{})
	if err != nil {
		t.Fatalf("hedged Plan: %v", err)
	}
	if !pr.Cached {
		t.Fatalf("unexpected response: %+v", pr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged response took %v; the stalled first attempt won", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (primary + hedge)", got)
	}
}

// End to end: a 503 carrying a date-form Retry-After holds the retry back.
func TestClientHonoursHTTPDateRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAt.Store(time.Now().UnixNano())
			// Truncate before adding: HTTP-dates drop sub-second precision,
			// so "now + 1s" could land mere milliseconds in the future when
			// now is late in its second. Truncating first guarantees the
			// date is 1-2s out and the asserted gap below always holds.
			w.Header().Set("Retry-After", time.Now().Truncate(time.Second).Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			secondAt.Store(time.Now().UnixNano())
			w.Write([]byte(`{"result":{},"cached":false,"key":"k"}`)) //nolint:errcheck
		}
	}))
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	if _, err := c.Plan(context.Background(), PlanRequest{}); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// HTTP-dates have one-second resolution, so the bound is conservative:
	// the retry must not arrive essentially immediately (the pre-fix
	// fall-through to the millisecond-scale default backoff).
	if gap := time.Duration(secondAt.Load() - firstAt.Load()); gap < 100*time.Millisecond {
		t.Fatalf("retry arrived %v after the 503 — the date-form Retry-After was ignored", gap)
	}
}

// A traced caller's trace id must ride the outbound traceparent header (so
// the server adopts it), the server's X-Trace-Id must land in the response
// struct, and retries must show up as events on the "client.plan" span.
func TestClientTracePropagation(t *testing.T) {
	var gotTraceparent atomic.Value
	var fails atomic.Int32
	fails.Store(1) // first attempt 500s, the retry succeeds
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTraceparent.Store(r.Header.Get("traceparent"))
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"transient","status":500}`))
			return
		}
		w.Header().Set("X-Trace-Id", "5e77e76a5e77e76a5e77e76a5e77e76a")
		w.Write([]byte(`{"result":{"Cycles":42},"cached":false,"key":"k","source":"search"}`))
	}))
	defer ts.Close()

	trc := obs.NewTracer(obs.TracerConfig{})
	trace, root := trc.StartRequest("client-test", "")
	ctx := obs.ContextWithSpan(context.Background(), root)

	pr, err := New(ts.URL, fastOpts()).Plan(ctx, PlanRequest{Arch: "edge", Model: "bert", SeqLen: 512, System: "unfused"})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if pr.TraceID != "5e77e76a5e77e76a5e77e76a5e77e76a" {
		t.Fatalf("PlanResponse.TraceID = %q, want the server's X-Trace-Id", pr.TraceID)
	}
	tid, _, ok := obs.ParseTraceparent(gotTraceparent.Load().(string))
	if !ok || tid != root.TraceID() {
		t.Fatalf("outbound traceparent %q does not carry caller trace %s", gotTraceparent.Load(), root.TraceID())
	}

	root.End()
	trc.Finish(trace)
	exp, ok := trc.Export(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not exportable", root.TraceID())
	}
	var plan *obs.SpanExport
	var walk func(spans []*obs.SpanExport)
	walk = func(spans []*obs.SpanExport) {
		for _, s := range spans {
			if s.Name == "client.plan" {
				plan = s
			}
			walk(s.Children)
		}
	}
	walk(exp.Spans)
	if plan == nil {
		t.Fatal("no client.plan span in exported trace")
	}
	retried := false
	for _, ev := range plan.Events {
		if ev.Name == "retry" {
			retried = true
		}
	}
	if !retried {
		t.Fatal("client.plan span has no retry event despite a 500 first attempt")
	}
	attrs := map[string]string{}
	for _, a := range plan.Attrs {
		attrs[a.K] = a.V
	}
	if attrs["server_trace"] != pr.TraceID || attrs["source"] != "search" {
		t.Fatalf("client.plan attrs = %v, want server_trace and source", attrs)
	}
}

// An untraced caller still stamps a fresh, valid traceparent on the wire so
// the server-side trace exists and is quotable.
func TestClientFreshTraceparentWhenUntraced(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("traceparent"))
		w.Write([]byte(`{"result":{},"cached":false,"key":"k","source":"memory"}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL, fastOpts()).Plan(context.Background(), PlanRequest{Arch: "edge", Model: "bert", SeqLen: 512, System: "unfused"}); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if _, _, ok := obs.ParseTraceparent(got.Load().(string)); !ok {
		t.Fatalf("untraced client sent invalid traceparent %q", got.Load())
	}
}
