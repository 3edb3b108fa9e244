// Package serve is the transfusiond serving layer: an HTTP JSON API fronting
// the analytical model's RunContext/CompareContext with the machinery a
// production endpoint needs —
//
//   - an LRU plan cache keyed by the canonical RunSpec key, with singleflight
//     coalescing of identical in-flight requests (serve.cache_hits/misses/
//     inflight/size/evictions metrics), optionally layered over a durable
//     disk tier (internal/store): memory hit -> disk hit -> search, with
//     disk fills off the request path, warm restart seeding the memory
//     cache from disk, and the answering tier surfaced as X-Plan-Source;
//   - a bounded-concurrency admission controller with a depth-limited wait
//     queue and a degradation ladder above it: as the queue fills, requests
//     step down search-budget tiers (full search -> reduced budget ->
//     heuristic tile only) instead of being shed, surfaced via the result's
//     Degraded/DegradedReason fields, a Served-Degraded response header, and
//     serve.degraded.* counters; only past twice the queue depth are
//     arrivals refused with 503 + a Retry-After computed from queue depth
//     and the EWMA of recent plan latencies (serve.plan_latency_ewma);
//   - a per-request watchdog that converts a stuck evaluation into a
//     degraded heuristic-only answer instead of letting the caller ride the
//     full deadline into a 504;
//   - per-request deadlines owned by the server, with the faults taxonomy
//     mapped onto HTTP statuses (faults.HTTPStatus), and a panic-recovery
//     boundary around every handler;
//   - split health endpoints — /healthz is pure liveness, /readyz is
//     readiness and fails while draining or while the evaluator circuit
//     breaker (tripped by consecutive internal errors) is open;
//   - graceful shutdown: on cancellation readiness flips first, then (after
//     ReadyDelay, for load balancers to stop routing) the listener closes
//     and in-flight plans finish within the drain timeout.
//
// Endpoints: POST /v1/plan, POST /v1/compare, GET /healthz, GET /readyz,
// GET /metrics, GET /debug/trace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// Config tunes the serving layer; zero values take the defaults noted on
// each field.
type Config struct {
	// MaxConcurrent bounds simultaneous evaluations (default 4).
	MaxConcurrent int
	// MaxQueue bounds callers waiting for an evaluation slot before new
	// arrivals are shed with 503 (0 takes the default of 64; negative
	// disables queueing entirely — a busy pool sheds immediately).
	MaxQueue int
	// RequestTimeout is the server-owned evaluation deadline (default 60s).
	// Expiry surfaces as 504 via the ErrCanceled mapping.
	RequestTimeout time.Duration
	// CacheEntries bounds the plan cache (default 1024 completed results).
	CacheEntries int
	// MaxSeqLen caps the sequence length accepted over the API (default
	// transfusion.MaxSeqLen). Lower it to bound worst-case evaluation time.
	MaxSeqLen int
	// MaxSearchBudget caps the per-request TileSeek rollout budget (default
	// 1024).
	MaxSearchBudget int
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// ReducedBudget is the search budget the degradation ladder's middle
	// tier caps requests at once the wait queue is half full (default 16).
	ReducedBudget int
	// WatchdogTimeout bounds how long a request waits on its evaluation
	// before the watchdog serves a degraded heuristic-only answer instead
	// (the stuck evaluation keeps running in the background, bounded by
	// RequestTimeout, and lands in the cache if it ever completes). 0 takes
	// the default of half the request timeout; negative disables the
	// watchdog.
	WatchdogTimeout time.Duration
	// ReadyDelay is the pause between flipping /readyz to draining and
	// closing the listener on shutdown, giving load balancers a window to
	// stop routing (default 0 — flip and drain immediately).
	ReadyDelay time.Duration
	// Store is the optional durable plan tier layered under the in-memory
	// cache (memory hit -> disk hit -> search). Completed full-fidelity
	// results are persisted to it off the request path; degraded results
	// never are. nil disables the disk tier.
	Store *store.Store
	// ColdStart skips seeding the in-memory cache from Store at startup.
	// The default (false) warm restart preloads the most recently used
	// stored plans so a restarted daemon answers its previous working set
	// from memory without re-searching.
	ColdStart bool
	// Tracer enables per-request tracing: every request gets a span tree
	// (admission wait, ladder decision, cache tiers, singleflight role,
	// search, store fills), an X-Trace-Id response header, and a slot in the
	// /debug/requests ring buffers. nil disables tracing — the request path
	// then carries no span and pays nothing (the obs span API is
	// zero-allocation on a span-free context).
	Tracer *obs.Tracer
	// Cluster enables the peer tier: a consistent-hash ring shards the
	// canonical-key space across replicas, and a request missing the local
	// memory and disk tiers on a non-owner replica is fetched from the
	// key's owner (X-Plan-Source: peer) instead of searched locally — the
	// owner's singleflight then guarantees each plan is computed at most
	// once cluster-wide. Every fetch failure falls back to the local search
	// tiers; degraded results never cross replicas (owners answer 503
	// rather than ship one). nil disables the tier.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxSeqLen <= 0 || c.MaxSeqLen > transfusion.MaxSeqLen {
		c.MaxSeqLen = transfusion.MaxSeqLen
	}
	if c.MaxSearchBudget <= 0 {
		c.MaxSearchBudget = 1024
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReducedBudget <= 0 {
		c.ReducedBudget = 16
	}
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = c.RequestTimeout / 2
	} else if c.WatchdogTimeout < 0 {
		c.WatchdogTimeout = 0
	}
	if c.ReadyDelay < 0 {
		c.ReadyDelay = 0
	}
	return c
}

// Circuit breaker into the evaluator: after breakerThreshold consecutive
// internal errors /readyz reports not-ready for breakerCooldown (or until a
// request succeeds), so orchestrators stop routing to a replica whose
// evaluator is systematically failing. Liveness (/healthz) is unaffected —
// the process itself is healthy and must not be restarted for it.
const (
	breakerThreshold = 5
	breakerCooldown  = 15 * time.Second
)

// maxBodyBytes bounds request bodies; plan/compare requests are tiny.
const maxBodyBytes = 1 << 20

// Server is the transfusiond HTTP service.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	cache    *planCache
	store    *store.Store // nil when the disk tier is disabled
	adm      *admission
	baseCtx  context.Context
	draining atomic.Bool

	// fills tracks in-flight asynchronous disk-tier writes so a drain can
	// wait for completed searches to reach durable storage.
	fills sync.WaitGroup

	// ewmaBits holds the EWMA of recent plan evaluation latencies in
	// milliseconds, as float64 bits (0 = no observation yet). It feeds the
	// serve.plan_latency_ewma gauge and the computed Retry-After.
	ewmaBits atomic.Uint64
	ewmaG    *obs.Gauge

	// consecInternal counts consecutive internal errors; at
	// breakerThreshold the evaluator circuit breaker trips (breakerTrip is
	// the trip time in unix nanoseconds) and /readyz fails until a request
	// succeeds or the cooldown passes.
	consecInternal atomic.Int64
	breakerTrip    atomic.Int64
}

// New builds a Server. reg receives the serving metrics and is exposed at
// /metrics; nil disables metrics (the endpoint then serves an empty
// snapshot). baseCtx carries cross-request facilities (logger); nil means
// background. Only its values are kept: cancellation is detached, so a
// caller passing its shutdown-signal context (as cmd/transfusiond does)
// cannot abort in-flight evaluations mid-drain — drain semantics belong to
// the context given to Serve.
func New(cfg Config, reg *obs.Registry, baseCtx context.Context) *Server {
	cfg = cfg.withDefaults()
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	baseCtx = context.WithoutCancel(baseCtx)
	if reg != nil {
		baseCtx = obs.WithMetrics(baseCtx, reg)
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   newPlanCache(cfg.CacheEntries, reg),
		store:   cfg.Store,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, reg),
		baseCtx: baseCtx,
		ewmaG:   reg.Gauge("serve.plan_latency_ewma"),
	}
	if s.store != nil && !cfg.ColdStart {
		// Warm restart: preload the most recently used stored plans so the
		// previous working set answers from memory immediately. Only
		// full-fidelity results are ever persisted, so nothing seeded here
		// can shadow a clean entry with a degraded one.
		s.store.WarmEntries(cfg.CacheEntries, func(we store.WarmEntry) bool {
			s.cache.Put(we.Key, we.Result)
			return true
		})
	}
	return s
}

// Handler returns the routed, metrics- and trace-instrumented handler.
// Ordering matters: metrics wrap tracing so the middleware's own cost is
// inside the measured latency, and tracing wraps the panic boundary so a
// recovered panic still finishes its trace (as a 500, and therefore
// retained).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []string{"/v1/plan", "/v1/compare", "/healthz", "/readyz", "/metrics", "/debug/trace", "/debug/requests"}
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/plan/batch", s.handlePlanBatch)
	mux.HandleFunc("/v1/peer/plan", s.handlePeerPlan)
	mux.HandleFunc("/v1/peer/cached", s.handlePeerCached)
	mux.HandleFunc("/v1/compare", s.handleCompare)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/requests", s.handleRequests)
	return obs.HTTPMetrics(s.reg, "serve.http", routes,
		obs.HTTPTrace(s.cfg.Tracer, s.recoverPanics(mux)))
}

// recoverPanics is the handler-level panic boundary: a panic escaping a
// handler (the evaluation path has its own faults.Recover boundary, but the
// handlers themselves, fault injection, and future middleware do not) maps to
// a 500 instead of net/http killing the connection mid-response. If the
// handler already wrote a response the write of the error status is a no-op.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.writeError(w, &faults.InternalError{Panic: rec})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Serve runs the server on l until ctx is cancelled, then drains: readiness
// (/readyz) flips to draining immediately, ReadyDelay later no new
// connections are accepted, and in-flight requests get up to DrainTimeout to
// finish. Liveness (/healthz) stays OK throughout — a draining process is
// shutting down deliberately, not stuck.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{
		Handler: s.Handler(),
		// Request contexts inherit the server's base context values (logger,
		// metrics, chaos injector) so handlers see the same facilities
		// whether driven through Serve or through Handler directly in tests.
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Readiness flips before the listener closes so load balancers see
		// not-ready and stop routing while the socket still accepts the
		// stragglers already routed here.
		s.draining.Store(true)
		if s.cfg.ReadyDelay > 0 {
			time.Sleep(s.cfg.ReadyDelay)
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(drainCtx)
	}()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		// srv.Serve returns ErrServerClosed the moment Shutdown is called,
		// while the drain is still running. Block until Shutdown finishes (or
		// DrainTimeout expires) so in-flight plans complete before we return.
		err = <-shutdownErr
	}
	// Disk fills are asynchronous; drain them too, so a clean shutdown
	// leaves every completed search durably persisted (each fill is bounded
	// by RequestTimeout, so this cannot hang indefinitely).
	s.fills.Wait()
	return err
}

// The wire types are the client package's: one declaration of each body's
// fields and JSON tags, shared by both ends. The client's header mirrors
// (ServedDegraded, TraceID) are tagged json:"-" and never encoded.
type (
	// PlanRequest is the POST /v1/plan body. Architecture files and custom
	// models are not accepted over the wire (unknown fields are rejected
	// with 400).
	PlanRequest = client.PlanRequest
	// PlanResponse is the POST /v1/plan reply.
	PlanResponse = client.PlanResponse
	// CompareRequest is the POST /v1/compare body.
	CompareRequest = client.CompareRequest
	// CompareResponse is the POST /v1/compare reply: all five systems in the
	// paper's comparison order (Unfused first).
	CompareResponse = client.CompareResponse
)

// errorResponse is the JSON body of every non-2xx reply. WarmHint rides only
// on peer-route refusals and cache-only misses: the refusing replica's
// nearest stored recipe, so the requester's local fallback search can start
// warm instead of cold.
type errorResponse struct {
	Error    string                   `json:"error"`
	Status   int                      `json:"status"`
	WarmHint *transfusion.PlanSummary `json:"warm_hint,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError maps err through the faults taxonomy onto an HTTP status.
// Overload (503) carries a Retry-After computed from current queue depth and
// the EWMA of recent plan latencies; internal errors feed the evaluator
// circuit breaker behind /readyz.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := faults.HTTPStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	msg := err.Error()
	var ie *faults.InternalError
	if errors.As(err, &ie) {
		// Never leak a panic value or stack to the wire.
		msg = "internal error"
	}
	if status == http.StatusInternalServerError {
		s.noteInternalError()
	}
	writeJSON(w, status, errorResponse{Error: msg, Status: status})
}

// observeLatency folds one plan evaluation's service time into the EWMA
// behind serve.plan_latency_ewma (milliseconds) and the computed Retry-After.
func (s *Server) observeLatency(d time.Duration) {
	const alpha = 0.2
	ms := float64(d.Microseconds()) / 1e3
	for {
		old := s.ewmaBits.Load()
		next := ms
		if old != 0 {
			next = (1-alpha)*math.Float64frombits(old) + alpha*ms
		}
		if s.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			s.ewmaG.Set(next)
			return
		}
	}
}

// retryAfterSeconds estimates how long a shed caller should back off: the
// time for the current queue (plus the caller) to drain through the
// evaluation pool at the EWMA service rate, clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	ewmaMS := math.Float64frombits(s.ewmaBits.Load())
	if ewmaMS <= 0 {
		return 1
	}
	drainMS := float64(s.adm.pressure()+1) / float64(s.cfg.MaxConcurrent) * ewmaMS
	secs := int(math.Ceil(drainMS / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// noteInternalError advances the evaluator circuit breaker; see breakerOpen.
func (s *Server) noteInternalError() {
	if s.consecInternal.Add(1) >= breakerThreshold {
		s.breakerTrip.Store(time.Now().UnixNano())
	}
}

// noteSuccess resets the breaker: the evaluator produced a good answer.
func (s *Server) noteSuccess() { s.consecInternal.Store(0) }

// breakerOpen reports whether the evaluator circuit breaker currently holds
// /readyz not-ready: breakerThreshold consecutive internal errors, with the
// most recent inside the cooldown window.
func (s *Server) breakerOpen() bool {
	if s.consecInternal.Load() < breakerThreshold {
		return false
	}
	return time.Now().UnixNano()-s.breakerTrip.Load() < int64(breakerCooldown)
}

// decodeStrict decodes one JSON document into v, rejecting unknown fields,
// type mismatches, and trailing garbage — everything surfaces as an error
// matching faults.ErrInvalidSpec so the handler answers 400.
func decodeStrict(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return faults.Invalidf("serve: bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return faults.Invalidf("serve: trailing data after JSON body")
	}
	return nil
}

// decodeBody is the front of every POST route: the method check, then
// decodeStrict into v. On failure it writes the error reply and reports
// false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only", Status: http.StatusMethodNotAllowed})
		return false
	}
	if err := decodeStrict(r, v); err != nil {
		s.writeError(w, err)
		return false
	}
	return true
}

// decodePlan reads a PlanRequest body into a validated spec for the plan
// routes. On failure it writes the error reply and reports false.
func (s *Server) decodePlan(w http.ResponseWriter, r *http.Request) (transfusion.RunSpec, bool) {
	var req PlanRequest
	if !s.decodeBody(w, r, &req) {
		return transfusion.RunSpec{}, false
	}
	spec, err := s.planSpec(req)
	if err != nil {
		s.writeError(w, err)
		return spec, false
	}
	return spec, true
}

// planSpec checks req against the server limits and converts it to the spec
// it names; wireRequest is its inverse.
func (s *Server) planSpec(req PlanRequest) (transfusion.RunSpec, error) {
	if err := s.validateLimits(req.SeqLen, req.SearchBudget); err != nil {
		return transfusion.RunSpec{}, err
	}
	return transfusion.RunSpec{
		Arch: req.Arch, Model: req.Model, SeqLen: req.SeqLen, System: req.System,
		Batch: req.Batch, SearchBudget: req.SearchBudget, Causal: req.Causal,
	}, nil
}

// validateLimits enforces the server-side bounds before any evaluation work —
// including before the cache key is computed, so out-of-range values can never
// reach (and fragment) the plan cache.
func (s *Server) validateLimits(seqLen, budget int) error {
	if seqLen <= 0 {
		return faults.Invalidf("serve: non-positive seq_len %d", seqLen)
	}
	if seqLen > s.cfg.MaxSeqLen {
		return faults.Invalidf("serve: seq_len %d exceeds server limit %d", seqLen, s.cfg.MaxSeqLen)
	}
	if budget < 0 {
		return faults.Invalidf("serve: negative search_budget %d (0 selects the default)", budget)
	}
	if budget > s.cfg.MaxSearchBudget {
		return faults.Invalidf("serve: search_budget %d exceeds server limit %d", budget, s.cfg.MaxSearchBudget)
	}
	return nil
}

// Degradation-mode labels: exactly one serve.degraded.<mode> counter is
// incremented per response carrying a Served-Degraded header, so the sum of
// the serve.degraded.* counters always equals the number of degraded
// responses served.
const (
	degradeBudget    = "budget"    // ladder tier 1: search budget reduced
	degradeHeuristic = "heuristic" // ladder tier 2: heuristic tile only
	degradeWatchdog  = "watchdog"  // watchdog rescued a stuck evaluation
	degradeSearch    = "search"    // the evaluation itself degraded internally
)

// degradeTier maps current queue pressure onto the ladder: 0 below half the
// configured queue depth (full-fidelity search), 1 up to the full depth
// (reduced search budget), 2 beyond it (heuristic tile only — no search).
// With queueing disabled the ladder is off: a busy pool sheds immediately,
// preserving the strict pre-ladder behaviour.
func (s *Server) degradeTier() int {
	if s.cfg.MaxQueue == 0 {
		return 0
	}
	q := s.adm.pressure()
	switch {
	case 2*q < int64(s.cfg.MaxQueue):
		return 0
	case q < int64(s.cfg.MaxQueue):
		return 1
	default:
		return 2
	}
}

// applyLadder steps spec down the degradation ladder for the current load,
// returning the possibly rewritten spec and the degradation mode ("" at tier
// 0). Degraded specs have different canonical keys (the budget and the
// HeuristicOnly flag are both part of CanonicalKey), so degraded results live
// in their own cache slots and can never be served for — or overwrite — a
// full-fidelity entry: the cache is structurally unpoisonable by load.
func (s *Server) applyLadder(spec transfusion.RunSpec) (transfusion.RunSpec, string) {
	if spec.HeuristicOnly {
		return spec, "" // already at the bottom by the caller's own choice
	}
	switch s.degradeTier() {
	case 1:
		if spec.SearchBudget == 0 || spec.SearchBudget > s.cfg.ReducedBudget {
			spec.SearchBudget = s.cfg.ReducedBudget
			return spec, degradeBudget
		}
		return spec, ""
	case 2:
		spec.HeuristicOnly = true
		return spec, degradeHeuristic
	default:
		return spec, ""
	}
}

// Plan-source labels for the X-Plan-Source response header and the body's
// source field (client.PlanResponse.Source describes each): which tier
// answered.
const (
	sourceMemory   = "memory"
	sourceDisk     = "disk"
	sourcePeer     = "peer"
	sourceWarm     = "warm-search"
	sourcePeerWarm = "peer-warm"
	sourceSearch   = "search"
)

// resolution is the outcome of resolving one spec, labelled once: the
// result, whether a cache tier answered without waiting on any evaluation,
// the canonical key it was served under, the effective degradation mode (""
// for a full-fidelity answer) and the tier that answered.
type resolution struct {
	res    transfusion.RunResult
	cached bool
	key    string
	mode   string
	source string
}

// resolvePlan resolves one spec through the tiers in order: the exact tiers
// (memory, then disk), the degradation ladder, the cluster (a peer forward
// or a remap fetch), the warm tier, and the search under the watchdog. Each
// tier sets the source where it answers. reqCtx bounds only this caller's
// wait; the evaluation itself runs under the server's own deadline so a
// disconnecting client cannot kill coalesced peers, and its result is cached
// for the retry even if nobody is left to read it. allowPeer gates the
// cluster's forward route: the internal peer-fetch handler clears it so a
// fetch can never re-forward (two replicas that momentarily disagree about
// ownership during a topology change must degrade to local work, not loop).
//
// Degradation is settled here, once: the returned mode is the ladder or
// watchdog mode, else degradeSearch when the evaluation itself came back
// Degraded, and a result served degraded by the ladder or the watchdog
// carries its Degraded/DegradedReason stamp. Handlers only put the mode on
// the wire (markDegradedResponse).
//
// When the request carries a trace, the resolution gets a "plan.resolve"
// span annotated with the outcome — which tier answered, the cache key, and
// the degradation mode — so a slow or degraded response is attributable at a
// glance in /debug/requests.
func (s *Server) resolvePlan(reqCtx context.Context, spec transfusion.RunSpec, allowPeer bool) (r resolution, err error) {
	reqCtx, sp := obs.StartSpan(reqCtx, "plan.resolve")
	defer func() {
		if err == nil && r.mode == "" && r.res.Degraded {
			// The evaluation degraded internally (search timeout, budget
			// exhaustion, infeasible space — or an injected search fault).
			r.mode = degradeSearch
		} else if err == nil && r.mode != "" && !r.res.Degraded {
			r.res.Degraded = true
			r.res.DegradedReason = "served degraded under load (" + r.mode + " tier)"
		}
		if sp != nil {
			sp.SetAttr("key", r.key)
			sp.SetAttr("source", r.source)
			sp.SetAttrBool("cached", r.cached)
			if r.mode != "" {
				sp.SetAttr("degrade_mode", r.mode)
				sp.MarkDegraded()
			}
			sp.EndErr(err)
		}
	}()

	fullKey := spec.CanonicalKey()
	r.key = fullKey
	// The exact tiers come before the ladder: a complete stored answer beats
	// a freshly computed degraded one at any load.
	if res, source, ok := s.exactTier(reqCtx, fullKey); ok {
		r.res, r.cached, r.source = res, true, source
		return r, nil
	}
	spec, r.mode = s.applyLadder(spec)
	if r.mode != "" {
		sp.SetAttr("ladder_mode", r.mode)
		r.key = spec.CanonicalKey()
	}

	// Peer tier: the consistent-hash ring names one replica the key's owner;
	// a non-owner that missed its exact local tiers fetches from the owner
	// instead of searching, so the owner's singleflight makes each plan a
	// compute-at-most-once resource cluster-wide. Any failure — partition,
	// dead or draining owner, owner under load, injected chaos — falls
	// through to the local search tiers below: the cluster is a work-sharing
	// optimisation, never a correctness or availability dependency. Degraded
	// (ladder-rewritten) requests and specs not expressible on the wire never
	// forward.
	//
	// When this replica owns the key itself but the ring generation just
	// moved ownership here, the remap route runs instead: one cache-only
	// fetch from the previous generation's owner, so a membership change
	// costs at most one extra peer hop — not a cluster-wide re-search of
	// every remapped key. The remap fetch is deliberately not gated on
	// allowPeer: it is loop-free (the cache-only route never forwards or
	// searches), so even an owner answering a peer fetch may take the hop.
	//
	// Either fetch that fails may still return the remote side's nearest
	// stored recipe (peerHint); the warm tier below seeds the local search
	// from it.
	var peerHint *transfusion.PlanSummary
	if cl := s.cfg.Cluster; cl != nil && r.mode == "" && !spec.HeuristicOnly &&
		!s.draining.Load() && peerForwardable(spec) {
		ok := false
		switch owner := cl.Owner(fullKey); {
		case owner != "" && !cl.IsSelf(owner) && allowPeer:
			r.res, peerHint, ok = s.peerFetch(reqCtx, forwardRoute, owner, spec, fullKey)
		case owner != "" && cl.IsSelf(owner):
			if prev := cl.PrevOwner(fullKey); prev != "" && cl.CanFetch(prev) {
				r.res, peerHint, ok = s.peerFetch(reqCtx, remapRoute, prev, spec, fullKey)
			}
		}
		if ok {
			r.source = sourcePeer
			return r, nil
		}
	}

	// Warm tier: the exact tiers missed, so seed the search from the nearest
	// stored plan in the same workload family (same arch/model/system and
	// knobs, closest seq_len). The hint rides inside the spec — it is
	// excluded from the canonical key, so the result still lands in the
	// full-fidelity cache slot — and makes a near-miss request dramatically
	// cheaper: the warm search is deterministic given the store's state,
	// returns a full-fidelity result, and is never worse than the hint it
	// started from. Degraded records are never persisted, so a hint can never
	// carry degraded fidelity; heuristic-only requests run no search and have
	// nothing to warm.
	r.source = sourceSearch
	switch {
	case peerHint != nil:
		// A replica-aware warm hint from the failed peer fetch above beats
		// consulting the local store: the remote owner's nearest neighbour is
		// at least as close as ours (it owned this key family), and using it
		// skips the local store lookup and its record read.
		spec.WarmHint, r.source = peerHint, sourcePeerWarm
		s.reg.Counter("serve.peer.warm_hints").Inc()
		sp.SetAttr("warm_from", "peer")
	case s.store != nil && r.mode == "" && !spec.HeuristicOnly:
		diskCtx, cancel := s.boundDiskCtx(reqCtx)
		ne, ok := s.store.Nearest(diskCtx, fullKey)
		cancel()
		if ok && ne.Result.Plan != nil {
			spec.WarmHint, r.source = ne.Result.Plan, sourceWarm
			s.reg.Counter("serve.warm_hits").Inc()
			sp.SetAttr("warm_from", ne.Key)
		}
	}

	if s.cfg.WatchdogTimeout > 0 {
		err = s.watchedEval(reqCtx, spec, &r)
	} else {
		r.res, r.cached, err = s.doEval(reqCtx, spec, r.key)
	}
	if r.cached {
		// The cache answered inside Do (the entry landed between the exact
		// tiers and the call, or the degraded key was already cached): a
		// memory answer, whatever seeded the spec.
		r.source = sourceMemory
	}
	return r, err
}

// exactTier answers key from the exact tiers: the memory cache, then the
// disk tier, whose hit is promoted into memory so the next request skips the
// disk. Every store failure (read fault, torn record, injected chaos)
// reports a clean miss. The store's own "store.read" span (it inherits the
// request span through diskCtx) carries the lookup's duration and error, so
// injected disk latency and faults are attributed to this tier in the trace.
func (s *Server) exactTier(ctx context.Context, key string) (transfusion.RunResult, string, bool) {
	_, memSp := obs.StartSpan(ctx, "cache.memory")
	res, ok := s.cache.Get(key)
	memSp.SetAttrBool("hit", ok)
	memSp.End()
	if ok {
		return res, sourceMemory, true
	}
	if s.store == nil {
		return res, "", false
	}
	diskCtx, cancel := s.boundDiskCtx(ctx)
	res, ok = s.store.Get(diskCtx, key)
	cancel()
	if !ok {
		return res, "", false
	}
	s.cache.Put(key, res)
	return res, sourceDisk, true
}

// watchedEval runs the evaluation for r.key under the watchdog, filling r.
// If the evaluation outlasts WatchdogTimeout, it serves a heuristic-only
// answer instead of letting the caller ride the request deadline into a 504.
// The stuck evaluation keeps running in the background, bounded by
// RequestTimeout, and lands in the cache under its own key if it ever
// completes.
func (s *Server) watchedEval(reqCtx context.Context, spec transfusion.RunSpec, r *resolution) error {
	type evalOut struct {
		res    transfusion.RunResult
		cached bool
		err    error
	}
	done := make(chan evalOut, 1)
	key := r.key
	go func() {
		res, cached, err := s.doEval(reqCtx, spec, key)
		done <- evalOut{res: res, cached: cached, err: err}
	}()
	// A heuristic-only evaluation already is the fallback; there is nothing
	// cheaper to step down to, so it is ridden out (a nil channel never
	// fires).
	var fired <-chan time.Time
	if !spec.HeuristicOnly {
		watchdog := time.NewTimer(s.cfg.WatchdogTimeout)
		defer watchdog.Stop()
		fired = watchdog.C
	}
	select {
	case o := <-done:
		r.res, r.cached = o.res, o.cached
		return o.err
	case <-reqCtx.Done():
		r.source = sourceSearch
		return faults.Canceled(reqCtx)
	case <-fired:
	}
	// The fallback bypasses admission deliberately — the pool's slots may be
	// wedged by the very evaluations the watchdog is routing around, and the
	// heuristic path is bounded, cheap work.
	s.reg.Counter("serve.watchdog_fires").Inc()
	obs.SpanFromContext(reqCtx).Event("watchdog.fired")
	fspec := spec // the stuck evaluation still reads spec
	fspec.HeuristicOnly = true
	r.key, r.source = fspec.CanonicalKey(), sourceSearch
	res, cached, err := s.cache.Do(reqCtx, r.key, true, func() (transfusion.RunResult, error) {
		evalCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		var wdSp *obs.Span
		if sp := obs.SpanFromContext(reqCtx); sp != nil {
			evalCtx = obs.ContextWithSpan(evalCtx, sp)
			evalCtx, wdSp = obs.StartSpan(evalCtx, "plan.watchdog_rescue")
		}
		res, err := transfusion.RunContext(evalCtx, fspec)
		wdSp.EndErr(err)
		return res, err
	})
	if err != nil {
		return err
	}
	r.res, r.cached, r.mode = res, cached, degradeWatchdog
	return nil
}

// boundDiskCtx derives the context for an on-request-path disk read: the
// server's base context (which carries the chaos injector and metrics), time-
// bounded so a slow or fault-injected disk degrades to a miss instead of
// wedging the request. The watchdog timeout bounds it when configured — the
// disk tier sits outside the watchdog, so it must not be allowed to consume
// the whole request deadline on its own. The request's span (when tracing)
// is re-attached so the store's "store.read" span lands in the request's
// trace despite the detached cancellation.
func (s *Server) boundDiskCtx(reqCtx context.Context) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if s.cfg.WatchdogTimeout > 0 && s.cfg.WatchdogTimeout < timeout {
		timeout = s.cfg.WatchdogTimeout
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	if sp := obs.SpanFromContext(reqCtx); sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	return ctx, cancel
}

// peerForwardable reports whether spec can be expressed as a wire-level
// PlanRequest. Specs carrying local-only inputs (an architecture file path, a
// custom model) never arise from the HTTP handlers, but a direct library
// caller could build one — those always resolve locally.
func peerForwardable(spec transfusion.RunSpec) bool {
	return spec.ArchFile == "" && spec.CustomModel == nil
}

// wireRequest expresses a forwardable spec as the peer-route body.
func wireRequest(spec transfusion.RunSpec) client.PlanRequest {
	return client.PlanRequest{
		Arch: spec.Arch, Model: spec.Model, SeqLen: spec.SeqLen, System: spec.System,
		Batch: spec.Batch, SearchBudget: spec.SearchBudget, Causal: spec.Causal,
	}
}

// hintFrom extracts the replica-aware warm hint, if any, from a failed peer
// call: the remote side attaches its store.Nearest recipe to refusals and
// cache-only misses.
func hintFrom(err error) *transfusion.PlanSummary {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.WarmHint
	}
	return nil
}

// peerRoute is one of the two cluster fetches: its span, the span attribute
// naming the peer, whether it asks the peer's caches only, and its counters
// (one per attempt, one per adopted plan, and — on the forward route — one
// per fallback, so serve.peer.hits + serve.peer.fallbacks always sums to
// serve.peer.forwards).
type peerRoute struct {
	span, peerAttr            string
	cachedOnly                bool
	attempts, hits, fallbacks string
}

var (
	// forwardRoute asks the key's owner to resolve it (/v1/peer/plan).
	forwardRoute = peerRoute{
		span: "cluster.fetch", peerAttr: "owner",
		attempts: "serve.peer.forwards", hits: "serve.peer.hits", fallbacks: "serve.peer.fallbacks",
	}
	// remapRoute is the one-hop previous-owner protocol (/v1/peer/cached):
	// this replica owns the key under the current ring generation, but the
	// previous generation's owner's caches, not a local search, are the
	// cheapest place the plan can be. The remote side never searches or
	// forwards on that route, and after the first hop the plan (fetched or
	// searched) is in the local cache, so the hop never repeats for the key.
	remapRoute = peerRoute{
		span: "cluster.remap", peerAttr: "prev_owner", cachedOnly: true,
		attempts: "cluster.remap.fetches", hits: "cluster.remap.hits",
	}
)

// peerFetch fetches fullKey's plan from peer over rt, returning (result,
// nil, true) on a usable full-fidelity answer. It runs under its own timeout
// derived from the server's base context — like the disk tier, it must not
// consume the whole request deadline, and it must carry the chaos injector
// so the serve.peer.fetch site can strike. The bound is the cluster's
// per-peer timeout: flat normally, clamped down by the prober's latency EWMA
// for a peer known to be running slow. The fetched result fills the local
// memory cache immediately and the local disk tier asynchronously (off the
// request path), so subsequent requests for the key on this replica answer
// locally. On any failure it reports (zero, hint, false) — hint carrying the
// peer's nearest stored recipe when its refusal included one — and the
// caller falls through to local search.
func (s *Server) peerFetch(reqCtx context.Context, rt peerRoute, peer string, spec transfusion.RunSpec, fullKey string) (transfusion.RunResult, *transfusion.PlanSummary, bool) {
	s.reg.Counter(rt.attempts).Inc()
	cl := s.cfg.Cluster
	ctx, cancel := context.WithTimeout(s.baseCtx, cl.PeerTimeout(peer))
	defer cancel()
	if sp := obs.SpanFromContext(reqCtx); sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	ctx, sp := obs.StartSpan(ctx, rt.span)
	sp.SetAttr(rt.peerAttr, peer)
	var resp *client.PlanResponse
	err := chaos.SiteFrom(ctx, chaos.SiteServePeerFetch).Strike(ctx)
	if err == nil {
		if rt.cachedOnly {
			resp, err = cl.FetchCached(ctx, peer, wireRequest(spec))
		} else {
			resp, err = cl.Fetch(ctx, peer, wireRequest(spec))
		}
	}
	if err == nil && resp.Result.Degraded {
		// Peers answer 503 rather than ship a degraded plan; a body that
		// carries one anyway (a version-skewed or misbehaving peer) is
		// treated as a failed fetch so it can never enter a local cache.
		err = faults.Invalidf("serve: peer %s returned a degraded result", peer)
	}
	if err != nil {
		if rt.fallbacks != "" {
			s.reg.Counter(rt.fallbacks).Inc()
		}
		sp.EndErr(err)
		return transfusion.RunResult{}, hintFrom(err), false
	}
	s.reg.Counter(rt.hits).Inc()
	sp.SetAttr("peer_source", resp.Source)
	sp.End()
	s.cache.Put(fullKey, resp.Result)
	s.storeFillAsync(ctx, fullKey, resp.Result)
	return resp.Result, nil, true
}

// WarmGrid precomputes plans for gaps in the store's seq-length grid, warm-
// seeding each from its nearest stored neighbour. It walks the store's
// family index (same arch/model/system and knobs, seq_len ignored; families
// in key order, seq_lens ascending, heuristic-only families skipped);
// between each adjacent stored pair (lo, hi) the power-of-two
// lengths lo*2, lo*4, ... < hi are planned, skipping any already cached or
// stored. Completed plans land in both the memory cache and the store, and
// count in serve.warm_grid_plans. maxPlans > 0 bounds the total work; 0
// walks the whole grid. It runs off the serving path — call it from a
// goroutine at boot — and returns the number of plans computed (ctx
// cancellation stops it early).
func (s *Server) WarmGrid(ctx context.Context, maxPlans int) int {
	if s.store == nil {
		return 0
	}
	planned := 0
	for _, fam := range s.store.Families() {
		if fam.Spec.HeuristicOnly {
			continue
		}
		seqs := fam.SeqLens
		for i := 0; i+1 < len(seqs); i++ {
			for q := seqs[i] * 2; q < seqs[i+1]; q *= 2 {
				if ctx.Err() != nil || (maxPlans > 0 && planned >= maxPlans) {
					return planned
				}
				spec := fam.Spec
				spec.SeqLen = q
				if s.warmGridPlan(ctx, spec) {
					planned++
				}
			}
		}
	}
	return planned
}

// warmGridPlan fills one grid gap: skip if either exact tier already has the
// key, otherwise evaluate with the nearest stored plan as the warm hint and
// persist the completed result. Reports whether a plan was computed.
func (s *Server) warmGridPlan(ctx context.Context, spec transfusion.RunSpec) bool {
	key := spec.CanonicalKey()
	if _, ok := s.cache.Get(key); ok {
		return false
	}
	getCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	res, ok := s.store.Get(getCtx, key)
	cancel()
	if ok {
		s.cache.Put(key, res)
		return false
	}
	neCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	ne, ok := s.store.Nearest(neCtx, key)
	cancel()
	if ok {
		spec.WarmHint = ne.Result.Plan
	}
	evalCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()
	res, err := transfusion.RunContext(evalCtx, spec)
	if err != nil || res.Degraded {
		// Degraded results are never persisted (nor worth pre-seeding the
		// cache with); the gap stays open for a real request to fill.
		return false
	}
	s.cache.Put(key, res)
	putCtx, cancel2 := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel2()
	s.store.Put(putCtx, key, res) //nolint:errcheck // counted in store.put_errors
	s.reg.Counter("serve.warm_grid_plans").Inc()
	return true
}

// storeFillAsync persists a completed full-fidelity result to the disk tier
// off the request path. Degraded results are never persisted: they encode a
// transient load or fault condition, and the store must only ever hold
// answers worth serving forever. Fill failures (including injected chaos)
// cost durability, never correctness — the next restart re-searches.
//
// evalCtx donates only its span (when tracing): the fill appears in the
// originating request's trace as an async "store.fill" span — typically
// still open when the response goes out, exported as unfinished — but runs
// under its own timeout detached from the request.
func (s *Server) storeFillAsync(evalCtx context.Context, key string, res transfusion.RunResult) {
	if s.store == nil || res.Degraded {
		return
	}
	parent := obs.SpanFromContext(evalCtx)
	s.fills.Add(1)
	go func() {
		defer s.fills.Done()
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		var sp *obs.Span
		if parent != nil {
			ctx = obs.ContextWithSpan(ctx, parent)
			ctx, sp = obs.StartSpan(ctx, "store.fill")
			sp.SetAttrBool("async", true)
		}
		err := s.store.Put(ctx, key, res) //nolint:errcheck // counted in store.put_errors
		sp.EndErr(err)
	}()
}

// doEval is one pass through the cache/admission stack for a
// (possibly ladder-rewritten) spec.
func (s *Server) doEval(reqCtx context.Context, spec transfusion.RunSpec, key string) (transfusion.RunResult, bool, error) {
	// Degraded results are retained only under keys that asked for degraded
	// fidelity; see planCache.Do.
	return s.cache.Do(reqCtx, key, spec.HeuristicOnly, func() (res transfusion.RunResult, err error) {
		// The recover boundary keeps an injected (or real) panic in the
		// leader from unwinding through the cache's singleflight machinery
		// and killing the serving process; it classifies as an internal
		// error (500) for the leader and every coalesced joiner.
		defer faults.Recover(&err)
		evalCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		// The evaluation runs under the server-owned evalCtx, which does not
		// inherit the request context — re-attach the request's span so the
		// singleflight leader's work ("plan.lead": admission wait, chaos
		// strikes, the search itself) lands in the leader's trace. Joiners
		// get a "plan.join" span inside planCache.Do instead.
		var lead *obs.Span
		if sp := obs.SpanFromContext(reqCtx); sp != nil {
			evalCtx = obs.ContextWithSpan(evalCtx, sp)
			evalCtx, lead = obs.StartSpan(evalCtx, "plan.lead")
			defer func() { lead.EndErr(err) }()
		}
		if err := s.adm.acquire(evalCtx); err != nil {
			return transfusion.RunResult{}, err
		}
		defer s.adm.release()
		if err := chaos.SiteFrom(evalCtx, chaos.SiteServeCacheLeader).Strike(evalCtx); err != nil {
			return transfusion.RunResult{}, err
		}
		start := time.Now()
		res, err = transfusion.RunContext(evalCtx, spec)
		if err == nil {
			s.observeLatency(time.Since(start))
			// One durable fill per completed evaluation, spawned by the
			// singleflight leader so coalesced joiners never duplicate it.
			s.storeFillAsync(evalCtx, key, res)
		}
		return res, err
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	spec, ok := s.decodePlan(w, r)
	if !ok {
		return
	}
	res, err := s.resolvePlan(r.Context(), spec, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.markDegradedResponse(r.Context(), w, res.mode)
	s.noteSuccess()
	writePlan(w, res, start)
}

// writePlan answers a plan route with one resolution: the X-Plan-Source
// header and the PlanResponse body.
func writePlan(w http.ResponseWriter, res resolution, start time.Time) {
	w.Header().Set("X-Plan-Source", res.source)
	writeJSON(w, http.StatusOK, PlanResponse{
		Result: res.res, Cached: res.cached, Key: res.key, Source: res.source,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// handlePeerPlan answers the internal peer-fetch route (/v1/peer/plan): a
// sibling replica that does not own a key forwards the request here so this
// replica's singleflight computes the plan once for the whole cluster. The
// contract differs from /v1/plan in two ways. First, resolvePlan runs with
// allowPeer=false — an owner never re-forwards, so topology disagreement
// during a membership change can bounce a request at most once. Second,
// degraded results never cross replicas: while draining, while the local
// ladder is engaged, or when the evaluation itself degraded, the owner
// answers 503 and the requester falls back to its own local search. A
// degraded plan in a peer response would otherwise be cached remotely and
// outlive the load spike that caused it.
func (s *Server) handlePeerPlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	spec, ok := s.decodePlan(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.peerRefuse(w, r.Context(), spec.CanonicalKey(), faults.Overloadedf("serve: draining; peer fetches refused"))
		return
	}
	if s.degradeTier() > 0 {
		s.peerRefuse(w, r.Context(), spec.CanonicalKey(), faults.Overloadedf("serve: overloaded; peer fetch would degrade"))
		return
	}
	res, err := s.resolvePlan(r.Context(), spec, false)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if res.mode != "" {
		s.peerRefuse(w, r.Context(), spec.CanonicalKey(), faults.Overloadedf("serve: degraded result withheld from peer fetch"))
		return
	}
	s.reg.Counter("serve.peer.serves").Inc()
	s.noteSuccess()
	writePlan(w, res, start)
}

// peerRefuse answers a peer route with a refusal that still helps: alongside
// the 503 the body carries this replica's nearest stored recipe for the key
// (when one exists), so the requester's mandatory local fallback search can
// start warm. Counted in serve.peer.rejects like every peer refusal.
func (s *Server) peerRefuse(w http.ResponseWriter, ctx context.Context, fullKey string, err error) {
	s.reg.Counter("serve.peer.rejects").Inc()
	status := faults.HTTPStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, errorResponse{
		Error: err.Error(), Status: status, WarmHint: s.nearestHint(ctx, fullKey),
	})
}

// nearestHint looks up the nearest stored recipe for fullKey for use as a
// replica-aware warm hint. Store absence, misses, and disk faults all report
// nil — hints are an optimisation, never an obligation. Nearest never
// returns a degraded or plan-less record, so a hint is always a full-
// fidelity seed.
func (s *Server) nearestHint(reqCtx context.Context, fullKey string) *transfusion.PlanSummary {
	if s.store == nil {
		return nil
	}
	diskCtx, cancel := s.boundDiskCtx(reqCtx)
	defer cancel()
	ne, ok := s.store.Nearest(diskCtx, fullKey)
	if !ok || ne.Result.Plan == nil {
		return nil
	}
	return ne.Result.Plan
}

// handlePeerCached answers the cache-only peer route (/v1/peer/cached): the
// one-hop previous-owner fetch a replica makes when ring reconfiguration
// just moved ownership of a key onto it. The contract is strictly cheaper
// than /v1/peer/plan: answer from the local memory or disk tier, never
// search, never forward — which is what makes the remap path loop-free and
// safe to run even while answering a peer's own fetch. A miss is a 404
// carrying the nearest stored recipe as a warm hint. The route stays open
// while draining: it is bounded read-only work, and the draining replica's
// caches are exactly what the surviving owners need to take over its keys.
func (s *Server) handlePeerCached(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	spec, ok := s.decodePlan(w, r)
	if !ok {
		return
	}
	key := spec.CanonicalKey()
	if res, source, ok := s.exactTier(r.Context(), key); ok && !res.Degraded {
		s.reg.Counter("serve.peer.cached.hits").Inc()
		writePlan(w, resolution{res: res, cached: true, key: key, source: source}, start)
		return
	}
	s.reg.Counter("serve.peer.cached.misses").Inc()
	writeJSON(w, http.StatusNotFound, errorResponse{
		Error:  "serve: no cached plan for " + key,
		Status: http.StatusNotFound, WarmHint: s.nearestHint(r.Context(), key),
	})
}

// markDegradedResponse puts a response's degradation mode on the wire, once
// per response however many resolutions stand behind it: the request's trace
// is marked degraded (which guarantees its retention in the tracer's
// tail-sampling ring), the Served-Degraded header names the mode, and
// exactly one serve.degraded.<mode> counter is incremented, so the
// counters' sum equals the number of degraded responses on the wire. mode ""
// is the full-fidelity fast path: no header, no counter.
func (s *Server) markDegradedResponse(ctx context.Context, w http.ResponseWriter, mode string) {
	if mode == "" {
		return
	}
	obs.SpanFromContext(ctx).MarkDegraded()
	w.Header().Set("Served-Degraded", mode)
	s.reg.Counter("serve.degraded." + mode).Inc()
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CompareRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Route each system through the same tiers as /v1/plan, so a compare
	// shares evaluations with plans (and other compares) of the same
	// workload. The five specs share their limits, so an out-of-range
	// request fails on the first before any evaluation.
	resp := CompareResponse{Results: make([]transfusion.RunResult, 0, 5)}
	mode := ""
	for _, name := range transfusion.SystemNames() {
		spec, err := s.planSpec(PlanRequest{
			Arch: req.Arch, Model: req.Model, SeqLen: req.SeqLen, System: name,
			Batch: req.Batch, SearchBudget: req.SearchBudget,
		})
		var res resolution
		if err == nil {
			res, err = s.resolvePlan(r.Context(), spec, true)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		if res.cached {
			resp.CachedResults++
		}
		if mode == "" {
			mode = res.mode
		}
		resp.Results = append(resp.Results, res.res)
	}
	s.markDegradedResponse(r.Context(), w, mode)
	s.noteSuccess()
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: the process is up and serving HTTP. It
// stays 200 while draining (shutting down deliberately is not being stuck) —
// restart decisions belong to /healthz, routing decisions to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while draining (flipped before the listener
// closes, so load balancers stop routing first) and while the evaluator
// circuit breaker is open after consecutive internal errors.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.breakerOpen():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "breaker-open"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// handleMetrics serves the registry under content negotiation:
// ?format=json keeps the legacy JSON snapshot, ?format=prometheus — or an
// Accept header naming text/plain, which is what a Prometheus scraper
// sends — serves text exposition format 0.0.4, and anything else gets the
// legacy sorted name/value text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "json" {
		data, err := s.reg.Snapshot().JSON()
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data) //nolint:errcheck
		return
	}
	if format == "prometheus" || strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.reg.WritePrometheus(w) //nolint:errcheck
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.Snapshot().WriteText(w) //nolint:errcheck
}

// handleRequests serves the request-trace ring buffers: the full dump
// (in-flight + recent + retained span trees) by default, one trace by
// ?id=<trace-id>, and a Chrome trace_event rendering of one trace by
// ?id=<trace-id>&format=chrome (load it in Perfetto or chrome://tracing).
// With tracing disabled the dump is present but empty, so dashboards can
// poll unconditionally.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	tracer := s.cfg.Tracer
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusOK, tracer.Dump())
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		events, ok := tracer.ChromeTrace(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "serve: no trace " + id, Status: http.StatusNotFound})
			return
		}
		data, err := obs.MarshalChromeTrace(events)
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "request-trace.json"))
		w.Write(data) //nolint:errcheck
		return
	}
	exp, ok := tracer.Export(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "serve: no trace " + id, Status: http.StatusNotFound})
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

// handleTrace serves the Chrome trace_event export of the DPipe schedules for
// a workload: GET /debug/trace?arch=edge&model=bert&seq=4096&epochs=6.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err := strconv.Atoi(strings.TrimSpace(q.Get("seq")))
	if err != nil {
		s.writeError(w, faults.Invalidf("serve: bad seq parameter %q", q.Get("seq")))
		return
	}
	epochs := 6
	if e := q.Get("epochs"); e != "" {
		epochs, err = strconv.Atoi(e)
		if err != nil || epochs < 1 || epochs > 64 {
			s.writeError(w, faults.Invalidf("serve: bad epochs parameter %q", e))
			return
		}
	}
	if err := s.validateLimits(seq, 0); err != nil {
		s.writeError(w, err)
		return
	}
	data, err := transfusion.ChromeTraceSchedule(q.Get("arch"), q.Get("model"), seq, epochs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "trace.json"))
	w.Write(data) //nolint:errcheck
}
