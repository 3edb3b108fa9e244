package obs

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// Request-scoped tracing: every serving-path request owns a *Trace — a tree
// of *Span records (name, start, duration, attributes, events, error) built
// as the request flows through admission, the degradation ladder, the
// memory/disk cache tiers, singleflight, and the per-sub-layer searches. The
// *Tracer keeps in-flight traces plus two completed rings (a recent ring and
// a tail-sampling ring that always retains slow, degraded, and errored
// traces) behind /debug/requests, and exports any trace as a span-tree JSON
// document or a per-request Chrome trace.
//
// The package's zero-cost discipline applies: when no span is attached to
// the context — the CLI, the experiment harness, a daemon with tracing
// disabled — StartSpan is a single context lookup returning a nil *Span, and
// every method on a nil *Span or nil *Tracer is a no-op branch. No
// allocation, no boxing, no time lookup (AllocsPerRun-guarded).

// spanKey carries the current *Span in a context; a zero-size type keys
// without allocating.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the current span.
// A nil sp detaches tracing from the derived context: StartSpan below it
// returns nil spans, which callers use to suppress span floods (e.g. the
// tile search's objective evaluations, which run hundreds of times per
// request).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the context's current span, or nil when tracing is
// not active on this path. The nil result is fully usable: every *Span
// method no-ops on a nil receiver.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan starts a child of the context's current span and returns a
// derived context carrying it. When the context carries no span (tracing
// disabled, or deliberately detached) it returns ctx unchanged and a nil
// *Span — one predicted branch, no allocation. The caller must End the
// returned span (nil-safe).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.newSpan(name, parent.id)
	if child == nil {
		// Per-trace span cap reached: record against the parent chain
		// happened in newSpan; keep attributing work to the parent.
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, child), child
}

// Attr is one span attribute. Values are stored as strings: attributes are
// for humans and JSON exports, not for computation.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanEvent is a point-in-time annotation inside a span (a watchdog firing,
// a client retry).
type SpanEvent struct {
	Name string    `json:"name"`
	At   time.Time `json:"-"`
}

// Span is one timed operation inside a Trace. All methods are safe on a nil
// receiver and safe for concurrent use (mutation locks the owning trace).
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64 // 0 = root
	name   string
	start  time.Time

	// The fields below are guarded by tr.mu.
	dur    time.Duration
	ended  bool
	errMsg string
	attrs  []Attr
	events []SpanEvent
}

// End marks the span complete, recording its duration. Idempotent: the first
// End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// EndErr is End plus SetError when err is non-nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetError(err)
	}
	s.End()
}

// SetError records the error on the span and marks the whole trace errored,
// which guarantees its retention in the tracer's tail-sampling ring.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.errored = true
	s.tr.mu.Unlock()
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: key, V: value})
	s.tr.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// SetAttrFloat records a float attribute.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%g", v))
}

// SetAttrBool records a boolean attribute.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%t", v))
}

// Event records a point-in-time annotation.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.events = append(s.events, SpanEvent{Name: name, At: time.Now()})
	s.tr.mu.Unlock()
}

// MarkDegraded flags the owning trace as having served below full fidelity,
// guaranteeing retention in the tracer's tail-sampling ring.
func (s *Span) MarkDegraded() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.degraded = true
	s.tr.mu.Unlock()
}

// TraceID returns the owning trace's W3C trace-id (32 lowercase hex chars),
// or "" on nil.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SpanID returns this span's id rendered as a W3C parent-id (16 lowercase
// hex chars), or "" on nil.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.id)
}

// Trace is one request's span tree. Spans may be appended concurrently
// (async store fills outlive the request) — all mutation is serialised on
// mu.
type Trace struct {
	id         string // W3C trace-id, 32 hex chars
	name       string
	start      time.Time
	parentSpan string // inbound traceparent parent-id, "" when locally rooted
	maxSpans   int

	mu       sync.Mutex
	spans    []*Span
	nextSpan uint64
	dur      time.Duration
	finished bool
	errored  bool
	degraded bool
	dropped  int
}

// ID returns the trace's W3C trace-id.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// newSpan appends a span under the cap; nil when the trace is out of span
// budget (the drop is counted and exported).
func (t *Trace) newSpan(name string, parent uint64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return nil
	}
	t.nextSpan++
	sp := &Span{tr: t, id: t.nextSpan, parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, sp)
	return sp
}

// TracerConfig tunes a Tracer; zero values take the defaults noted per
// field.
type TracerConfig struct {
	// Capacity bounds the recent-completed ring (default 64).
	Capacity int
	// RetainCapacity bounds the tail-sampling ring reserved for slow,
	// degraded, and errored traces (default 64).
	RetainCapacity int
	// SlowThreshold classifies a trace as slow — and therefore always
	// retained — when its total duration reaches it (default 1s).
	SlowThreshold time.Duration
	// MaxSpans caps spans per trace; excess spans are dropped and counted
	// (default 256).
	MaxSpans int
	// Seed seeds trace-id generation for deterministic tests (0 seeds from
	// the clock).
	Seed int64
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.RetainCapacity <= 0 {
		c.RetainCapacity = 64
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = time.Second
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 256
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
	}
	return c
}

// Tracer owns the request traces of one server: the in-flight set, a ring of
// recently completed traces, and a tail-sampling ring that always retains
// the traces worth keeping — slow, degraded, or errored — even after the
// recent ring has churned past them. A nil *Tracer is fully usable and
// records nothing.
type Tracer struct {
	cfg TracerConfig

	mu       sync.Mutex
	rng      *rand.Rand
	seq      uint64
	inflight map[uint64]*Trace
	seqOf    map[*Trace]uint64
	recent   []*Trace // oldest first
	retained []*Trace // oldest first
}

// NewTracer builds a Tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		inflight: make(map[uint64]*Trace),
		seqOf:    make(map[*Trace]uint64),
	}
}

// StartRequest opens a trace for one inbound request and returns it with its
// root span. traceparent, when it parses as a W3C traceparent header, donates
// the inbound trace-id (so one distributed trace shares an id across client
// and daemon) and records the caller's span as the root's logical parent;
// otherwise a fresh id is generated. Nil-safe: a nil tracer returns
// (nil, nil), and the nil trace/span no-op everywhere.
func (t *Tracer) StartRequest(name, traceparent string) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	id, parentSpan, ok := ParseTraceparent(traceparent)
	t.mu.Lock()
	if !ok {
		id = t.newTraceIDLocked()
	}
	tr := &Trace{
		id:         id,
		name:       name,
		start:      time.Now(),
		parentSpan: parentSpan,
		maxSpans:   t.cfg.MaxSpans,
	}
	t.seq++
	t.inflight[t.seq] = tr
	t.seqOf[tr] = t.seq
	t.mu.Unlock()
	root := tr.newSpan(name, 0)
	return tr, root
}

// newTraceIDLocked generates a 32-hex-char trace-id; caller holds t.mu.
func (t *Tracer) newTraceIDLocked() string {
	for {
		hi, lo := t.rng.Uint64(), t.rng.Uint64()
		if hi|lo != 0 { // the all-zero id is invalid per W3C
			return fmt.Sprintf("%016x%016x", hi, lo)
		}
	}
}

// Finish closes the trace (its root span should already be ended) and files
// it: always into the recent ring, and additionally into the tail-sampling
// retained ring when it is slow, degraded, or errored. Spans still open —
// an async disk fill, a detached cache leader — may keep recording into the
// trace after Finish; exports render them as unfinished.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.finished {
		tr.finished = true
		tr.dur = time.Since(tr.start)
	}
	keep := tr.errored || tr.degraded || tr.dur >= t.cfg.SlowThreshold
	tr.mu.Unlock()

	t.mu.Lock()
	if seq, ok := t.seqOf[tr]; ok {
		delete(t.inflight, seq)
		delete(t.seqOf, tr)
	}
	t.recent = append(t.recent, tr)
	if len(t.recent) > t.cfg.Capacity {
		t.recent = t.recent[1:]
	}
	if keep {
		t.retained = append(t.retained, tr)
		if len(t.retained) > t.cfg.RetainCapacity {
			t.retained = t.retained[1:]
		}
	}
	t.mu.Unlock()
}

// SpanExport is one span rendered for the /debug/requests JSON document.
type SpanExport struct {
	SpanID   string        `json:"span_id"`
	Parent   string        `json:"parent_span_id,omitempty"`
	Name     string        `json:"name"`
	StartUS  float64       `json:"start_us"` // offset from the trace start
	DurUS    float64       `json:"dur_us"`
	Error    string        `json:"error,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []EventView   `json:"events,omitempty"`
	Children []*SpanExport `json:"children,omitempty"`
	// Unfinished marks a span still open at export time (an async store
	// fill, a detached leader); DurUS is then the elapsed time so far.
	Unfinished bool `json:"unfinished,omitempty"`
}

// EventView is a span event rendered with its offset from the trace start.
type EventView struct {
	Name string  `json:"name"`
	AtUS float64 `json:"at_us"`
}

// TraceExport is one trace rendered for the /debug/requests JSON document.
type TraceExport struct {
	TraceID      string        `json:"trace_id"`
	Name         string        `json:"name"`
	Start        time.Time     `json:"start"`
	DurMS        float64       `json:"dur_ms"`
	InFlight     bool          `json:"in_flight,omitempty"`
	Error        bool          `json:"error,omitempty"`
	Degraded     bool          `json:"degraded,omitempty"`
	Slow         bool          `json:"slow,omitempty"`
	ParentSpan   string        `json:"parent_span_id,omitempty"`
	DroppedSpans int           `json:"dropped_spans,omitempty"`
	Spans        []*SpanExport `json:"spans"`
}

// export renders the trace under its own lock.
func (t *Tracer) export(tr *Trace, inFlight bool) *TraceExport {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	now := time.Now()
	out := &TraceExport{
		TraceID:      tr.id,
		Name:         tr.name,
		Start:        tr.start,
		InFlight:     inFlight,
		Error:        tr.errored,
		Degraded:     tr.degraded,
		ParentSpan:   tr.parentSpan,
		DroppedSpans: tr.dropped,
	}
	dur := tr.dur
	if !tr.finished {
		dur = now.Sub(tr.start)
	}
	out.DurMS = float64(dur.Microseconds()) / 1e3
	out.Slow = tr.finished && tr.dur >= t.cfg.SlowThreshold
	byID := make(map[uint64]*SpanExport, len(tr.spans))
	for _, sp := range tr.spans {
		se := &SpanExport{
			SpanID:  fmt.Sprintf("%016x", sp.id),
			Name:    sp.name,
			StartUS: float64(sp.start.Sub(tr.start).Microseconds()),
			Error:   sp.errMsg,
			Attrs:   append([]Attr(nil), sp.attrs...),
		}
		if sp.parent != 0 {
			se.Parent = fmt.Sprintf("%016x", sp.parent)
		}
		d := sp.dur
		if !sp.ended {
			d = now.Sub(sp.start)
			se.Unfinished = true
		}
		se.DurUS = float64(d.Microseconds())
		for _, ev := range sp.events {
			se.Events = append(se.Events, EventView{Name: ev.Name, AtUS: float64(ev.At.Sub(tr.start).Microseconds())})
		}
		byID[sp.id] = se
	}
	// Stitch the tree; spans whose parent was dropped at the cap surface as
	// extra roots rather than disappearing.
	for _, sp := range tr.spans {
		se := byID[sp.id]
		if parent, ok := byID[sp.parent]; ok && sp.parent != sp.id {
			parent.Children = append(parent.Children, se)
		} else {
			out.Spans = append(out.Spans, se)
		}
	}
	return out
}

// RequestsDump is the /debug/requests document: in-flight traces plus the
// two completed rings, newest first.
type RequestsDump struct {
	InFlight []*TraceExport `json:"in_flight"`
	Recent   []*TraceExport `json:"recent"`
	Retained []*TraceExport `json:"retained"`
}

// Dump exports every tracked trace, newest first in each list. Nil-safe.
func (t *Tracer) Dump() RequestsDump {
	dump := RequestsDump{
		InFlight: []*TraceExport{},
		Recent:   []*TraceExport{},
		Retained: []*TraceExport{},
	}
	if t == nil {
		return dump
	}
	t.mu.Lock()
	inflight := make([]*Trace, 0, len(t.inflight))
	seqs := make([]uint64, 0, len(t.inflight))
	for seq := range t.inflight {
		seqs = append(seqs, seq)
	}
	// Newest first by sequence.
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if seqs[j] > seqs[i] {
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
	}
	for _, seq := range seqs {
		inflight = append(inflight, t.inflight[seq])
	}
	recent := append([]*Trace(nil), t.recent...)
	retained := append([]*Trace(nil), t.retained...)
	t.mu.Unlock()

	for _, tr := range inflight {
		dump.InFlight = append(dump.InFlight, t.export(tr, true))
	}
	for i := len(recent) - 1; i >= 0; i-- {
		dump.Recent = append(dump.Recent, t.export(recent[i], false))
	}
	for i := len(retained) - 1; i >= 0; i-- {
		dump.Retained = append(dump.Retained, t.export(retained[i], false))
	}
	return dump
}

// lookup finds a tracked trace by id (in-flight first, then the rings,
// newest first).
func (t *Tracer) lookup(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.inflight {
		if tr.id == id {
			return tr, true
		}
	}
	for i := len(t.retained) - 1; i >= 0; i-- {
		if t.retained[i].id == id {
			return t.retained[i], true
		}
	}
	for i := len(t.recent) - 1; i >= 0; i-- {
		if t.recent[i].id == id {
			return t.recent[i], true
		}
	}
	return nil, false
}

// Export renders one trace by id.
func (t *Tracer) Export(id string) (*TraceExport, bool) {
	tr, ok := t.lookup(id)
	if !ok {
		return nil, false
	}
	t.mu.Lock()
	_, inFlight := t.seqOf[tr]
	t.mu.Unlock()
	return t.export(tr, inFlight), true
}

// ChromeTrace renders one trace by id as Chrome trace_event JSON events:
// one complete ("X") event per span (each span on its own named thread lane
// so concurrent spans never overlap on a lane), and one zero-duration event
// per span event. Feed the result to MarshalChromeTrace / WriteChromeTrace.
func (t *Tracer) ChromeTrace(id string) ([]TraceEvent, bool) {
	tr, ok := t.lookup(id)
	if !ok {
		return nil, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	now := time.Now()
	events := []TraceEvent{ProcessName(1, "request "+tr.id)}
	for _, sp := range tr.spans {
		tid := int(sp.id)
		events = append(events, ThreadName(1, tid, sp.name))
		d := sp.dur
		if !sp.ended {
			d = now.Sub(sp.start)
		}
		ev := Complete(sp.name, float64(sp.start.Sub(tr.start).Microseconds()), float64(d.Microseconds()), 1, tid)
		if len(sp.attrs) > 0 || sp.errMsg != "" {
			ev.Args = map[string]interface{}{}
			for _, a := range sp.attrs {
				ev.Args[a.K] = a.V
			}
			if sp.errMsg != "" {
				ev.Args["error"] = sp.errMsg
			}
		}
		events = append(events, ev)
		for _, se := range sp.events {
			events = append(events, Complete(se.Name, float64(se.At.Sub(tr.start).Microseconds()), 0, 1, tid))
		}
	}
	return events, true
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"), returning the
// trace-id and parent-id. ok is false for anything malformed, for an
// unsupported version, and for all-zero ids.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) != 4 {
		return "", "", false
	}
	version, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || len(tid) != 32 || len(pid) != 16 || len(flags) != 2 {
		return "", "", false
	}
	if version == "ff" {
		return "", "", false
	}
	allZero := func(s string) bool { return strings.Trim(s, "0") == "" }
	for _, f := range []string{version, tid, pid, flags} {
		if !isLowerHex(f) {
			return "", "", false
		}
	}
	if allZero(tid) || allZero(pid) {
		return "", "", false
	}
	return tid, pid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// FormatTraceparent renders a W3C traceparent header for the given trace-id
// and span-id (sampled flag set).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// tpRng seeds NewTraceparent's ids; clients without an active span still
// need globally unique trace-ids.
var tpRng struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewTraceparent generates a fresh W3C traceparent header with random
// trace-id and parent-id — for clients originating a trace without a local
// span to inherit from.
func NewTraceparent() string {
	tpRng.mu.Lock()
	if tpRng.rng == nil {
		tpRng.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32))
	}
	var hi, lo, sp uint64
	for hi|lo == 0 {
		hi, lo = tpRng.rng.Uint64(), tpRng.rng.Uint64()
	}
	for sp == 0 {
		sp = tpRng.rng.Uint64()
	}
	tpRng.mu.Unlock()
	return FormatTraceparent(fmt.Sprintf("%016x%016x", hi, lo), fmt.Sprintf("%016x", sp))
}

// HTTPTrace wraps a handler with per-request tracing: it opens a trace named
// "<METHOD> <path>" (adopting an inbound W3C traceparent's trace-id when one
// is presented), sets the X-Trace-Id response header, threads the root span
// and a trace-id-stamped logger through the request context, and finishes
// the trace with the response status when the handler returns. A status of
// 500+ marks the trace errored (and therefore retained). A nil tracer
// returns next untouched — the disabled path costs nothing per request.
func HTTPTrace(t *Tracer, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, root := t.StartRequest(r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
		w.Header().Set("X-Trace-Id", tr.ID())
		ctx := ContextWithSpan(r.Context(), root)
		if lg := LoggerFrom(ctx); lg != nopLogger {
			ctx = WithLogger(ctx, lg.With("trace_id", tr.ID()))
		}
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			root.SetAttrInt("http.status", int64(status))
			if status >= 500 {
				root.SetError(fmt.Errorf("http status %d", status))
			}
			root.End()
			t.Finish(tr)
		}()
		next.ServeHTTP(rec, r.WithContext(ctx))
	})
}
