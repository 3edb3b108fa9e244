// Package obs is the zero-dependency observability core: a context-threaded
// structured logger (log/slog), an atomic metrics registry with text/JSON
// exposition, request spans, and a Chrome trace_event writer.
//
// Everything in this package is built around one constraint: the two hot
// search loops (TileSeek's MCTS rollouts and DPipe's DP inner loop) must pay
// nothing when observability is not configured. The package therefore leans
// on two idioms:
//
//   - the logger and the metrics registry travel in the context.Context;
//     LoggerFrom returns a disabled logger (never nil) and MetricsFrom
//     returns nil when unset;
//   - every instrument (*Counter, *Gauge, *Histogram) and the *Registry
//     itself are nil-receiver safe, so a hot loop fetches its counters once
//     up front and increments unconditionally — a nil counter increment is a
//     single predicted branch, no allocation.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

type ctxKey int

const (
	loggerKey ctxKey = iota
	metricsKey
)

// nopLogger is the disabled logger returned when none is configured. Its
// handler reports every level disabled, so even Logger.Enabled-unguarded
// call sites skip record construction.
var nopLogger = slog.New(discardHandler{})

// discardHandler drops everything and reports every level disabled.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// WithLogger returns a context carrying the logger; nil restores the
// disabled default.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	if l == nil {
		l = nopLogger
	}
	return context.WithValue(ctx, loggerKey, l)
}

// LoggerFrom returns the context's logger, or a disabled logger when none
// was attached. The result is never nil, so call sites need no guard; hot
// loops should still hoist the lookup out of the loop.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return nopLogger
}

// WithMetrics returns a context carrying the metrics registry.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, metricsKey, r)
}

// MetricsFrom returns the context's registry, or nil when none was attached.
// A nil registry is fully usable: every method on it (and on the nil
// instruments it hands out) is a no-op.
func MetricsFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey).(*Registry)
	return r
}

// NewLogger builds a stderr-style structured logger for the CLIs: text or
// JSON lines on w at the given level.
func NewLogger(w io.Writer, level slog.Level, json bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel resolves a CLI level name ("debug", "info", "warn", "error")
// case-insensitively.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (have debug, info, warn, error)", s)
	}
}
