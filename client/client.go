// Package client is the Go client for the transfusiond HTTP API (POST
// /v1/plan, POST /v1/compare, GET /healthz, GET /readyz), built for an
// unreliable network and a server that degrades under load:
//
//   - retries with exponential backoff and full jitter, honouring the
//     server's Retry-After on 503 (transfusiond computes it from queue depth
//     and its plan-latency EWMA, so obeying it spreads a thundering herd);
//   - a circuit breaker that opens after consecutive 5xx responses and
//     half-opens a single probe after a cooldown, so a struggling server is
//     not hammered by a retry storm;
//   - optional request hedging for plan lookups: plans are idempotent and
//     cached server-side, so racing a second request after a quiet delay
//     trims tail latency without changing any outcome;
//   - typed errors: every non-2xx response surfaces as an *APIError carrying
//     the status, the server's message, and any Retry-After hint.
//
// Responses served below full fidelity (the server's overload degradation
// ladder or watchdog) are reported via PlanResponse.ServedDegraded, mirroring
// the Served-Degraded response header.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// PlanRequest is the POST /v1/plan body; field semantics follow
// transfusion.RunSpec.
type PlanRequest struct {
	Arch         string `json:"arch"`
	Model        string `json:"model"`
	SeqLen       int    `json:"seq_len"`
	System       string `json:"system"`
	Batch        int    `json:"batch,omitempty"`
	SearchBudget int    `json:"search_budget,omitempty"`
	Causal       bool   `json:"causal,omitempty"`
}

// PlanResponse is the POST /v1/plan reply.
type PlanResponse struct {
	// Result is the evaluation outcome.
	Result transfusion.RunResult `json:"result"`
	// Cached reports the result came from a completed cache tier without
	// waiting on any evaluation.
	Cached bool `json:"cached"`
	// Key is the canonical cache key the request resolved to.
	Key string `json:"key"`
	// Source names the tier that answered, mirroring X-Plan-Source:
	// "memory" (the server's in-process cache), "disk" (its persistent plan
	// store), "peer" (fetched from the key's owning replica), "peer-warm" (a
	// fresh search seeded from the recipe a failed peer fetch returned),
	// "warm-search" (a fresh search seeded from the nearest stored plan), or
	// "search" (a fresh cold evaluation).
	Source string `json:"source"`
	// ElapsedMS is the server-side handling time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ServedDegraded mirrors the Served-Degraded response header: non-empty
	// when the server answered below full fidelity ("budget", "heuristic",
	// "watchdog", or "search"), empty for a full-fidelity answer.
	ServedDegraded string `json:"-"`
	// TraceID mirrors the X-Trace-Id response header: the server-side trace
	// that served this answer, quotable against the server's /debug/requests.
	TraceID string `json:"-"`
}

// CompareRequest is the POST /v1/compare body.
type CompareRequest struct {
	Arch         string `json:"arch"`
	Model        string `json:"model"`
	SeqLen       int    `json:"seq_len"`
	Batch        int    `json:"batch,omitempty"`
	SearchBudget int    `json:"search_budget,omitempty"`
}

// CompareResponse is the POST /v1/compare reply.
type CompareResponse struct {
	Results []transfusion.RunResult `json:"results"`
	// CachedResults counts how many of the five came straight from cache.
	CachedResults int     `json:"cached_results"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// ServedDegraded mirrors the Served-Degraded response header; see
	// PlanResponse.
	ServedDegraded string `json:"-"`
	// TraceID mirrors the X-Trace-Id response header; see PlanResponse.
	TraceID string `json:"-"`
}

// APIError is a non-2xx response from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string (or a summary of an unparseable
	// body).
	Message string
	// RetryAfter is the server's Retry-After hint, 0 when absent.
	RetryAfter time.Duration
	// WarmHint is the server's nearest stored plan recipe, attached to peer
	// route refusals and cache-only misses (transfusiond's replica-aware
	// warm hints). A requester that falls back to a local search can seed it
	// into RunSpec.WarmHint so the search starts warm instead of cold. Nil
	// when the server had nothing nearby.
	WarmHint *transfusion.PlanSummary
}

// Error renders the status and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("transfusiond: %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying the identical request can succeed:
// true for 5xx (overload, deadline, internal fault), false for 4xx (the
// request itself is wrong — 400/422 are deterministic outcomes).
func (e *APIError) Temporary() bool { return e.Status >= 500 }

// ErrCircuitOpen is returned without touching the network while the client's
// circuit breaker is open; match with errors.Is. Wait out the breaker
// cooldown (or fix the server) before retrying.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// Options tune the client; zero values take the defaults noted per field.
type Options struct {
	// HTTPClient overrides the transport (default: a client with a 90s
	// overall timeout; per-request contexts still apply).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 3;
	// negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling (default 100ms);
	// subsequent attempts double it, with full jitter.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep (default 5s). A server
	// Retry-After above the cap is still honoured up to 60s.
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-5xx count that opens the circuit
	// breaker (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before half-opening
	// a single probe request (default 10s).
	BreakerCooldown time.Duration
	// HedgeDelay, when positive, hedges plan lookups: if the first attempt
	// has not answered within the delay, a second identical request races it
	// and the first response wins. Plans are idempotent and coalesced
	// server-side, so hedging is safe; it is off by default.
	HedgeDelay time.Duration
	// Seed seeds the backoff jitter for reproducibility (0 seeds from the
	// clock).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 90 * time.Second}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Client talks to one transfusiond instance. It is safe for concurrent use.
type Client struct {
	base string
	opts Options

	mu  sync.Mutex
	rng *rand.Rand
	brk breaker
}

// New builds a Client for the server at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is trimmed.
func New(baseURL string, opts Options) *Client {
	return newClient(baseURL, opts.withDefaults())
}

// newClient builds a Client from opts that already carry their defaults:
// withDefaults maps a negative MaxRetries to 0, which a second pass would
// read as unset and raise to 3.
func newClient(baseURL string, opts Options) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		brk: breaker{
			threshold: opts.BreakerThreshold,
			cooldown:  opts.BreakerCooldown,
		},
	}
}

// breaker is the consecutive-5xx circuit breaker. Closed it passes every
// request; after threshold consecutive server-side failures it opens and
// fails fast for cooldown; then it half-opens exactly one probe — the probe's
// outcome closes or re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	consec    int
	openedAt  time.Time
	probing   bool
}

// allow reports whether a request may go out now.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consec < b.threshold {
		return true
	}
	if now.Sub(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false // one half-open probe at a time
	}
	b.probing = true
	return true
}

// record feeds one outcome back. serverFault marks 5xx responses and
// transport errors; 4xx responses and successes both count as the server
// answering coherently.
func (b *breaker) record(serverFault bool, now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if !serverFault {
		b.consec = 0
		return
	}
	b.consec++
	if b.consec >= b.threshold {
		b.openedAt = now
	}
}

// PeerPlanPath is transfusiond's internal replica-to-replica plan-fetch
// route. It shares the /v1/plan wire shapes, but the server refuses it while
// draining or degraded — a peer would rather search locally than serve a
// below-fidelity answer fetched across the cluster.
const PeerPlanPath = "/v1/peer/plan"

// PeerCachedPath is transfusiond's internal cache-only peer route: the server
// answers from its memory or disk tiers and never starts a search. Replicas
// use it for the one-hop previous-owner fetch after a ring change — cheap
// enough to try before a local search, and a miss (404) still carries the
// owner's nearest stored recipe as a warm hint.
const PeerCachedPath = "/v1/peer/cached"

// Plan evaluates one spec, retrying and (when configured) hedging. A trace
// span attached to ctx (obs.ContextWithSpan) gains a "client.plan" child
// covering every attempt, with events for retries, hedge launches, and
// breaker rejections, and the server's trace id as an attribute; the
// outbound traceparent header links the server-side trace to this one.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return c.plan(ctx, "/v1/plan", "client.plan", true, req)
}

// PeerPlan evaluates one spec through the server's internal peer-fetch route
// (PeerPlanPath) — the transport transfusiond replicas use to fetch a plan
// from the key's owner. Hedging and the breaker behave exactly as Plan's,
// and transport errors retry, but an answer from the owner is final: a 503
// (the owner is draining, overloaded, or would answer degraded) surfaces at
// once as a Temporary *APIError the caller falls back from. Waiting out its
// Retry-After would spend the caller's peer timeout on a replica that just
// said no, and lose the refusal's WarmHint when the timeout expires first.
func (c *Client) PeerPlan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return c.plan(ctx, PeerPlanPath, "client.peer_plan", false, req)
}

// PeerCached asks the server for a plan from its caches only (PeerCachedPath);
// the server never searches on this route. Like PeerPlan it retries only
// transport errors. A miss is a permanent 404 *APIError whose WarmHint, when
// non-nil, carries the server's nearest stored recipe for seeding the
// caller's own search.
func (c *Client) PeerCached(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return c.plan(ctx, PeerCachedPath, "client.peer_cached", false, req)
}

// plan is the shared body of Plan and the peer routes: one idempotent
// plan-shaped POST to path under the retry/hedge/breaker stack. retryAPI
// selects whether Temporary API errors retry as well as transport errors.
func (c *Client) plan(ctx context.Context, path, spanName string, retryAPI bool, req PlanRequest) (*PlanResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding plan request: %w", err)
	}
	ctx, sp := obs.StartSpan(ctx, spanName)
	out, err := c.withRetries(ctx, retryAPI, func(ctx context.Context) (interface{}, *APIError, error) {
		return c.hedged(ctx, func(ctx context.Context) (interface{}, *APIError, error) {
			status, header, data, err := c.post(ctx, path, body)
			if err != nil {
				return nil, nil, err
			}
			resp, apiErr, err := decodePlanResponse(status, header.Get("Retry-After"), data)
			if resp != nil {
				resp.ServedDegraded = header.Get("Served-Degraded")
				resp.TraceID = header.Get("X-Trace-Id")
			}
			return asAny(resp), apiErr, err
		})
	})
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	resp := out.(*PlanResponse)
	if sp != nil {
		sp.SetAttr("server_trace", resp.TraceID)
		sp.SetAttr("source", resp.Source)
		sp.SetAttrBool("cached", resp.Cached)
		sp.End()
	}
	return resp, nil
}

// Compare evaluates all five systems on one workload, retrying on transient
// failures. Tracing mirrors Plan: a ctx span gains a "client.compare" child.
func (c *Client) Compare(ctx context.Context, req CompareRequest) (*CompareResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding compare request: %w", err)
	}
	ctx, sp := obs.StartSpan(ctx, "client.compare")
	out, err := c.withRetries(ctx, true, func(ctx context.Context) (interface{}, *APIError, error) {
		status, header, data, err := c.post(ctx, "/v1/compare", body)
		if err != nil {
			return nil, nil, err
		}
		resp, apiErr, err := decodeCompareResponse(status, header.Get("Retry-After"), data)
		if resp != nil {
			resp.ServedDegraded = header.Get("Served-Degraded")
			resp.TraceID = header.Get("X-Trace-Id")
		}
		return asAny(resp), apiErr, err
	})
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	resp := out.(*CompareResponse)
	if sp != nil {
		sp.SetAttr("server_trace", resp.TraceID)
		sp.End()
	}
	return resp, nil
}

// asAny keeps a typed nil pointer from becoming a non-nil interface.
func asAny[T any](p *T) interface{} {
	if p == nil {
		return nil
	}
	return p
}

// Healthy checks liveness (GET /healthz) — no retries, no breaker.
func (c *Client) Healthy(ctx context.Context) error { return c.check(ctx, "/healthz") }

// Ready checks readiness (GET /readyz): nil when the server is routable, an
// *APIError (503 while draining or while the server's evaluator breaker is
// open) otherwise. No retries, no breaker.
func (c *Client) Ready(ctx context.Context) error { return c.check(ctx, "/readyz") }

func (c *Client) check(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	setTraceparent(ctx, req)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return &APIError{Status: resp.StatusCode, Message: summarise(data)}
}

// attemptFn is one wire attempt: (result, API-level error, transport error).
type attemptFn func(ctx context.Context) (interface{}, *APIError, error)

// withRetries runs fn under the breaker and retry policy: transport errors
// and, when retryAPI is set, Temporary API errors back off (honouring
// Retry-After) and retry; other API errors and successes return
// immediately.
func (c *Client) withRetries(ctx context.Context, retryAPI bool, fn attemptFn) (interface{}, error) {
	sp := obs.SpanFromContext(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !c.brk.allow(time.Now()) {
			sp.Event("breaker.open")
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}
		out, apiErr, err := fn(ctx)
		switch {
		case err != nil:
			// Transport-level failure: the server never answered coherently.
			c.brk.record(true, time.Now())
			lastErr = err
		case apiErr != nil:
			c.brk.record(apiErr.Temporary(), time.Now())
			if !retryAPI || !apiErr.Temporary() {
				return nil, apiErr
			}
			lastErr = apiErr
		default:
			c.brk.record(false, time.Now())
			return out, nil
		}
		if attempt >= c.opts.MaxRetries {
			return nil, lastErr
		}
		sp.Event("retry")
		if err := c.sleepBackoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
			return nil, err
		}
	}
}

// retryAfterOf extracts a server Retry-After hint from an error chain.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// sleepBackoff waits before retry number attempt+1: exponential backoff with
// full jitter, floored by the server's Retry-After hint when one was given.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	ceil := c.opts.BaseBackoff << uint(attempt)
	if ceil > c.opts.MaxBackoff {
		ceil = c.opts.MaxBackoff
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	if retryAfter > d {
		// The server knows its queue better than our jitter does.
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hedged runs fn, racing a second identical attempt if the first has not
// answered within HedgeDelay; the first response (success or failure, as long
// as another attempt is not still in flight to fall back on) wins and the
// loser is cancelled. With hedging disabled it is just fn.
func (c *Client) hedged(ctx context.Context, fn attemptFn) (interface{}, *APIError, error) {
	if c.opts.HedgeDelay <= 0 {
		return fn(ctx)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type out struct {
		res    interface{}
		apiErr *APIError
		err    error
	}
	ch := make(chan out, 2)
	launch := func() { go func() { r, a, e := fn(hctx); ch <- out{r, a, e} }() }
	launch()
	launched, received := 1, 0
	hedge := time.NewTimer(c.opts.HedgeDelay)
	defer hedge.Stop()
	for {
		select {
		case o := <-ch:
			received++
			if (o.err == nil && o.apiErr == nil) || received == launched {
				return o.res, o.apiErr, o.err
			}
			// This attempt failed but its twin is still in flight: let the
			// twin decide the outcome.
		case <-hedge.C:
			obs.SpanFromContext(ctx).Event("hedge.launch")
			launch()
			launched = 2
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// maxResponseBytes bounds response bodies read into memory; plan and compare
// replies are a few KB.
const maxResponseBytes = 8 << 20

// setTraceparent stamps the outbound W3C trace-context header: a traced
// caller propagates its own trace id (the server adopts it, so one id follows
// the request across both processes); an untraced caller sends a fresh id per
// attempt so the server-side trace is still quotable from its X-Trace-Id.
func setTraceparent(ctx context.Context, req *http.Request) {
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
		return
	}
	req.Header.Set("traceparent", obs.NewTraceparent())
}

func (c *Client) post(ctx context.Context, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	setTraceparent(ctx, req)
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// errorBody is the server's JSON error shape. WarmHint rides only on peer
// route refusals and cache-only misses.
type errorBody struct {
	Error    string                   `json:"error"`
	Status   int                      `json:"status"`
	WarmHint *transfusion.PlanSummary `json:"warm_hint,omitempty"`
}

// decodePlanResponse turns one wire response into a PlanResponse or an
// *APIError. It must never panic and must tolerate arbitrary bodies — the
// server may be fronted by proxies that answer with HTML, truncated JSON, or
// nothing at all (FuzzClientDecode holds it to that).
func decodePlanResponse(status int, retryAfter string, body []byte) (*PlanResponse, *APIError, error) {
	if status == http.StatusOK {
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return nil, nil, fmt.Errorf("client: undecodable 200 plan body: %w", err)
		}
		return &pr, nil, nil
	}
	return nil, apiErrorFrom(status, retryAfter, body), nil
}

// decodeCompareResponse is decodePlanResponse for /v1/compare.
func decodeCompareResponse(status int, retryAfter string, body []byte) (*CompareResponse, *APIError, error) {
	if status == http.StatusOK {
		var cr CompareResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, nil, fmt.Errorf("client: undecodable 200 compare body: %w", err)
		}
		return &cr, nil, nil
	}
	return nil, apiErrorFrom(status, retryAfter, body), nil
}

// apiErrorFrom builds the typed error for a non-200 response, tolerating
// non-JSON bodies and junk Retry-After values.
func apiErrorFrom(status int, retryAfter string, body []byte) *APIError {
	e := &APIError{Status: status}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		e.Message = eb.Error
		e.WarmHint = eb.WarmHint
	} else {
		e.Message = summarise(body)
	}
	e.RetryAfter = parseRetryAfter(retryAfter)
	return e
}

// summarise renders a (possibly binary, possibly huge) body as a short
// printable message.
func summarise(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	if s == "" {
		return "(empty response body)"
	}
	return strconv.Quote(s)
}

// parseRetryAfter parses a Retry-After header in either RFC 9110 form —
// delta-seconds, or an HTTP-date (transfusiond sends delta-seconds, but the
// client also talks to it through proxies and load balancers that rewrite the
// header to a date) — clamped to [0, 5m]. Anything unparseable, negative, or
// a date already in the past is 0.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	const cap = 300 * time.Second
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return min(time.Duration(secs)*time.Second, cap)
	}
	// http.ParseTime accepts the three date formats the RFC admits
	// (IMF-fixdate, RFC 850, ANSI C asctime).
	when, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := time.Until(when)
	if d < 0 {
		return 0
	}
	return min(d, cap)
}
