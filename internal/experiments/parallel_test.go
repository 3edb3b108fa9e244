package experiments

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/flight"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

// A regenerated artifact must render byte-identically whether its grid cells
// were evaluated lazily in the table loop (Parallelism 1) or prefetched
// through the concurrent cell pool.
func TestExperimentTableParallelismByteIdentical(t *testing.T) {
	e, err := ByID("fig10b")
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) string {
		opts := pipeline.DefaultOptions()
		opts.TileSeekIterations = 4
		opts.Parallelism = parallelism
		tb, err := e.Run(NewRunner(opts))
		if err != nil {
			t.Fatal(err)
		}
		return tb.Render()
	}
	ref := run(1)
	if ref == "" {
		t.Fatal("empty serial reference table")
	}
	for _, parallelism := range []int{4, 0} { // 0 resolves to GOMAXPROCS
		if got := run(parallelism); got != ref {
			t.Fatalf("parallelism=%d table diverged from serial:\n%s\n-- want --\n%s",
				parallelism, got, ref)
		}
	}
}

// Concurrent Evals of the same cell must coalesce into one evaluation.
func TestEvalSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 4
	r := NewRunnerContext(obs.WithMetrics(context.Background(), reg), opts)

	var wg sync.WaitGroup
	results := make([]pipeline.Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Eval(arch.Cloud(), model.T5(), 4096, pipeline.FuseMax())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for _, res := range results[1:] {
		if res.TotalCycles != results[0].TotalCycles {
			t.Fatal("joined callers saw a different result")
		}
	}
	if got := reg.Snapshot().Counters["pipeline.evaluations"]; got != 1 {
		t.Fatalf("cell evaluated %d times, want 1", got)
	}
	if r.cache.Len() != 1 {
		t.Fatalf("cache size = %d, want 1", r.cache.Len())
	}
}

// The cell pool must surface its in-flight gauge (and return it to zero once
// the prefetch drains).
func TestPrefetchGaugeRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 4
	opts.Parallelism = 4
	r := NewRunnerContext(obs.WithMetrics(context.Background(), reg), opts)
	e, err := ByID("fig10b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(r); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	inflight, ok := snap.Gauges["experiments.cells_inflight"]
	if !ok {
		t.Fatal("experiments.cells_inflight not registered")
	}
	if inflight != 0 {
		t.Fatalf("cells_inflight = %v after drain, want 0", inflight)
	}
}

// gatedPanic is a slog handler that, on the first record logged through it,
// signals entered, waits for gate and panics: it panics out of the first
// evaluation logging under a Runner's context. Later records pass.
type gatedPanic struct {
	entered, gate chan struct{}
	records       atomic.Int32
}

func (h *gatedPanic) Enabled(context.Context, slog.Level) bool { return true }
func (h *gatedPanic) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *gatedPanic) WithGroup(string) slog.Handler            { return h }
func (h *gatedPanic) Handle(context.Context, slog.Record) error {
	if h.records.Add(1) == 1 {
		close(h.entered)
		<-h.gate
		panic("evaluation bug")
	}
	return nil
}

// A caller that joins an evaluation which then panics gets an internal
// error, as the leader's own recover boundary would report it, never a
// caller-fault ErrInvalidSpec; the panic keeps propagating in the leader.
func TestEvalSingleflightPanicGivesJoinersInternalError(t *testing.T) {
	h := &gatedPanic{entered: make(chan struct{}), gate: make(chan struct{})}
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 4
	r := NewRunnerContext(obs.WithLogger(context.Background(), slog.New(h)), opts)
	joined := make(chan struct{})
	r.cache = flight.New[pipeline.Result](0, flight.Hooks{Join: func(_, _ context.Context) func(error) {
		close(joined)
		return func(error) {}
	}})
	eval := func() error {
		_, err := r.Eval(arch.Edge(), model.BERT(), 4096, pipeline.TransFusion())
		return err
	}
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		eval() //nolint:errcheck // it panics
	}()
	<-h.entered
	joinErr := make(chan error, 1)
	go func() { joinErr <- eval() }()
	<-joined
	close(h.gate)
	if p := <-leaderPanic; p == nil {
		t.Fatal("the leader's panic did not propagate")
	}
	err := <-joinErr
	var ie *faults.InternalError
	if !errors.As(err, &ie) || errors.Is(err, faults.ErrInvalidSpec) {
		t.Fatalf("joiner of a panicked evaluation got %v, want *faults.InternalError", err)
	}
}
