package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerRoundTrip(t *testing.T) {
	ctx := context.Background()
	if lg := LoggerFrom(ctx); lg == nil {
		t.Fatal("LoggerFrom returned nil on a bare context")
	}
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo, false)
	ctx = WithLogger(ctx, lg)
	LoggerFrom(ctx).Info("hello", "k", 1)
	if !strings.Contains(buf.String(), "hello") || !strings.Contains(buf.String(), "k=1") {
		t.Fatalf("log line = %q", buf.String())
	}
	// nil restores the disabled default.
	ctx = WithLogger(ctx, nil)
	if LoggerFrom(ctx).Enabled(ctx, slog.LevelError) {
		t.Fatal("nil-restored logger still enabled")
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelWarn, true).Warn("boom", "n", 2)
	line := buf.String()
	if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"msg":"boom"`) {
		t.Fatalf("JSON log line = %q", line)
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	ctx := context.Background()
	if MetricsFrom(ctx) != nil {
		t.Fatal("MetricsFrom non-nil on bare context")
	}
	r := NewRegistry()
	ctx = WithMetrics(ctx, r)
	MetricsFrom(ctx).Counter("x").Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("registry not threaded through the context")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"Warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bogus level accepted")
	}
}

// The unconfigured paths must not allocate: hot loops increment nil
// instruments and consult the disabled logger on every rollout and DP cell.
func TestUnconfiguredPathsDoNotAllocate(t *testing.T) {
	ctx := context.Background()

	var nilReg *Registry
	c := nilReg.Counter("x")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		nilReg.Gauge("g").Set(1)
		nilReg.Histogram("h", nil).Observe(2)
	}); n != 0 {
		t.Fatalf("nil instruments allocate: %v allocs/op", n)
	}

	lg := LoggerFrom(ctx)
	if n := testing.AllocsPerRun(100, func() {
		if lg.Enabled(ctx, slog.LevelDebug) {
			lg.Debug("never", "k", 1)
		}
	}); n != 0 {
		t.Fatalf("disabled logger guard allocates: %v allocs/op", n)
	}
}

func TestConfiguredCounterDoesNotAllocate(t *testing.T) {
	// Even with a live registry, increments on a hoisted counter are
	// allocation-free — only the name lookup pays.
	c := NewRegistry().Counter("hot")
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Fatalf("live counter allocates: %v allocs/op", n)
	}
}
