// External package for the same reason as client_test.go: these tests stand
// in for the cluster tier, which reaches client through serve's import graph.
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
)

// Regression for the shared-breaker hazard: before Pool, reusing one Client
// for N peers conflated their breaker state — consecutive 5xx from one dead
// peer would fail-fast requests to every healthy peer. A Pool must keep the
// breaker per endpoint: A's open circuit never blocks B.
func TestPoolIsolatesBreakerPerEndpoint(t *testing.T) {
	var deadCalls, okCalls atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadCalls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		okCalls.Add(1)
		w.Write([]byte(`{"result":{},"cached":false,"key":"k"}`)) //nolint:errcheck
	}))
	defer ok.Close()

	pool := NewPool(Options{
		MaxRetries:       2,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute, // long enough to stay open for the test
		Seed:             42,
	})

	ctx := context.Background()
	// Trip the dead peer's breaker: one call's 3 attempts all 500.
	if _, err := pool.For(dead.URL).Plan(ctx, PlanRequest{}); err == nil {
		t.Fatal("dead peer returned success")
	}
	if _, err := pool.For(dead.URL).Plan(ctx, PlanRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second call to dead peer: err = %v, want ErrCircuitOpen", err)
	}
	tripped := deadCalls.Load()

	// The healthy peer must be unaffected — its breaker is its own.
	for i := 0; i < 5; i++ {
		if _, err := pool.For(ok.URL).Plan(ctx, PlanRequest{}); err != nil {
			t.Fatalf("healthy peer failed after sibling's breaker opened: %v", err)
		}
	}
	if okCalls.Load() != 5 {
		t.Fatalf("healthy peer saw %d calls, want 5", okCalls.Load())
	}
	// And the open breaker really is failing fast: no further network calls
	// reached the dead peer.
	if _, err := pool.For(dead.URL).Plan(ctx, PlanRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("dead peer breaker closed early: %v", err)
	}
	if got := deadCalls.Load(); got != tripped {
		t.Fatalf("open breaker let %d extra calls through", got-tripped)
	}
}

// Options reach a pooled Client with their defaults applied once: "no
// retries" (MaxRetries -1) must stay no retries, not be read as unset on a
// second pass and raised to the default 3.
func TestPoolKeepsNoRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"overloaded","status":503}`)) //nolint:errcheck
	}))
	defer ts.Close()

	pool := NewPool(Options{MaxRetries: -1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	var apiErr *APIError
	if _, err := pool.For(ts.URL).Plan(context.Background(), PlanRequest{}); !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want the 503 *APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (MaxRetries -1)", got)
	}
}

// The same normalised URL always resolves to the same Client (breaker state
// must accumulate across calls), and trailing slashes collapse.
func TestPoolReusesClientPerURL(t *testing.T) {
	pool := NewPool(Options{})
	a := pool.For("http://peer-a:8080")
	if pool.For("http://peer-a:8080") != a || pool.For("http://peer-a:8080/") != a {
		t.Fatal("same endpoint produced distinct Clients")
	}
	if pool.For("http://peer-b:8080") == a {
		t.Fatal("distinct endpoints shared a Client")
	}
	got := pool.Endpoints()
	if len(got) != 2 || got[0] != "http://peer-a:8080" || got[1] != "http://peer-b:8080" {
		t.Fatalf("Endpoints() = %v", got)
	}
}

// Prune must drop exactly the endpoints that left the member set — their
// breaker state with them, so a rejoining endpoint starts with a closed
// breaker — and leave survivors' Clients (and accumulated state) untouched.
func TestPoolPruneDropsDepartedEndpoints(t *testing.T) {
	pool := NewPool(Options{})
	a := pool.For("http://peer-a:8080")
	b := pool.For("http://peer-b:8080")
	pool.For("http://peer-c:8080")

	// Keep-list normalisation matches For's: a trailing slash is the same
	// endpoint.
	if dropped := pool.Prune([]string{"http://peer-a:8080/", "http://peer-b:8080"}); dropped != 1 {
		t.Fatalf("Prune dropped %d, want 1", dropped)
	}
	got := pool.Endpoints()
	if len(got) != 2 || got[0] != "http://peer-a:8080" || got[1] != "http://peer-b:8080" {
		t.Fatalf("Endpoints() after prune = %v", got)
	}
	if pool.For("http://peer-a:8080") != a || pool.For("http://peer-b:8080") != b {
		t.Fatal("prune rebuilt a surviving endpoint's Client")
	}
	// The departed endpoint gets a fresh Client if it ever rejoins.
	if pool.For("http://peer-c:8080") == nil {
		t.Fatal("rejoining endpoint got no Client")
	}
	if dropped := pool.Prune(nil); dropped != 3 {
		t.Fatalf("Prune(nil) dropped %d, want 3", dropped)
	}
	if len(pool.Endpoints()) != 0 {
		t.Fatalf("Endpoints() after full prune = %v", pool.Endpoints())
	}
}
