package transfusion

// Observability surface: the instrumentation layer lives in internal/obs;
// this file re-exports (via type aliases) the pieces external callers need —
// attaching a structured logger and a metrics registry to the evaluation
// context, and exporting DPipe schedules as Chrome trace_event JSON for
// chrome://tracing / Perfetto.

import (
	"context"
	"io"
	"log/slog"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/experiments"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Metrics is an atomic counters/gauges/histograms registry. Attach one to
// the evaluation context with WithMetrics and read it back with Snapshot
// after the run; see the README's Observability section for the metric
// names the pipeline populates.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry,
// serialisable via its JSON and WriteText methods.
type MetricsSnapshot = obs.Snapshot

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithMetrics returns a context whose evaluations record into m.
func WithMetrics(ctx context.Context, m *Metrics) context.Context {
	return obs.WithMetrics(ctx, m)
}

// WithLogger returns a context whose evaluations log through l (a
// *log/slog.Logger). Without one, logging is disabled at zero cost.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return obs.WithLogger(ctx, l)
}

// NewLogger builds a structured logger writing text (or JSON when json is
// set) lines to w at the given level; pair it with WithLogger.
func NewLogger(w io.Writer, level slog.Level, json bool) *slog.Logger {
	return obs.NewLogger(w, level, json)
}

// ParseLogLevel resolves a level name ("debug", "info", "warn", "error")
// case-insensitively, for CLI -log-level flags.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLevel(s) }

// ChromeTraceSchedule builds the DPipe schedule of every sub-layer of the
// workload (qproj, kvproj, mha, ln, ffn — the TransFusion system on the
// heuristic tile, as ScheduleTrace does for one sub-layer) over the given
// number of explicit epochs, and renders them all as one Chrome trace_event
// JSON document: one process per sub-layer, one thread per PE array, one
// complete event per scheduled op instance, with one modelled cycle mapped
// to one microsecond. The output loads directly in chrome://tracing and
// Perfetto. It is the exporter behind `transfusion -trace-out`.
func ChromeTraceSchedule(archName, modelName string, seqLen, epochs int) (out []byte, err error) {
	defer faults.Recover(&err)
	if seqLen <= 0 || seqLen > MaxSeqLen {
		return nil, faults.Invalidf("transfusion: sequence length %d out of range (1..%d)", seqLen, MaxSeqLen)
	}
	if epochs < 1 {
		epochs = 4
	}
	spec, err := arch.ByName(archName)
	if err != nil {
		return nil, err
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return nil, err
	}
	w := pipeline.Workload{Model: m, SeqLen: seqLen, Batch: model.EvalBatch}
	tile, err := tiling.HeuristicTile(w, spec)
	if err != nil {
		return nil, err
	}
	probs, err := pipeline.BuildProblems(w, spec, pipeline.TransFusion(), tile)
	if err != nil {
		return nil, err
	}
	var events []obs.TraceEvent
	for pid, name := range []string{"qproj", "kvproj", "mha", "ln", "ffn"} {
		prob := probs[name]
		plan, err := dpipe.Plan(prob, spec, dpipe.DefaultOptions())
		if err != nil {
			return nil, err
		}
		n := epochs
		if int64(n) > prob.Epochs {
			n = int(prob.Epochs)
		}
		tr, err := dpipe.TraceSchedule(prob, spec, plan.Order, plan.Bipartition.First, n, nil)
		if err != nil {
			return nil, err
		}
		events = append(events, tr.ChromeTraceEvents(pid+1)...)
	}
	return obs.MarshalChromeTrace(events)
}

// ExperimentReport is one regenerated artifact plus the observability
// side-channel collected while producing it.
type ExperimentReport struct {
	// ID is the experiment's identifier.
	ID string
	// Output is the rendered table (or CSV when requested).
	Output string
	// Notes lists degraded evaluations encountered while regenerating the
	// artifact, one line each ("arch|model|seq|system: degraded: reason").
	Notes []string
}

// RunExperimentReportContext regenerates one paper artifact like
// RunExperimentContext, but also returns the degradation notes so callers
// (cmd/experiments) can surface incomplete searches instead of silently
// folding them into the numbers. csv selects CSV output instead of the
// rendered table. parallelism bounds how many independent grid cells are
// evaluated at once (0 selects GOMAXPROCS, 1 forces the serial path); the
// rendered tables are bit-identical at every setting.
func RunExperimentReportContext(ctx context.Context, id string, searchBudget, parallelism int, csv bool) (ExperimentReport, error) {
	return RunExperimentReportOptions(ctx, id, ExperimentRunOptions{
		SearchBudget: searchBudget, Parallelism: parallelism, CSV: csv,
	})
}

// ExperimentRunOptions tunes one artifact regeneration; the zero value takes
// every default.
type ExperimentRunOptions struct {
	// SearchBudget overrides the TileSeek rollout budget (0 = default).
	SearchBudget int
	// Parallelism bounds how many independent grid cells are evaluated at
	// once (0 selects GOMAXPROCS, 1 forces the serial path); the rendered
	// tables are bit-identical at every setting.
	Parallelism int
	// CSV selects CSV output instead of the rendered table.
	CSV bool
}

// RunExperimentReportOptions is RunExperimentReportContext with the full
// option set.
func RunExperimentReportOptions(ctx context.Context, id string, o ExperimentRunOptions) (rep ExperimentReport, err error) {
	defer faults.Recover(&err)
	if o.SearchBudget < 0 {
		return ExperimentReport{}, faults.Invalidf("transfusion: negative search budget %d", o.SearchBudget)
	}
	if o.Parallelism < 0 {
		return ExperimentReport{}, faults.Invalidf("transfusion: negative parallelism %d (0 selects GOMAXPROCS)", o.Parallelism)
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return ExperimentReport{}, err
	}
	opts := pipeline.DefaultOptions()
	if o.SearchBudget > 0 {
		opts.TileSeekIterations = o.SearchBudget
	}
	opts.Parallelism = o.Parallelism
	runner := experiments.NewRunnerContext(ctx, opts)
	table, err := e.Run(runner)
	if err != nil {
		return ExperimentReport{}, err
	}
	rep = ExperimentReport{ID: id, Notes: runner.Notes()}
	if o.CSV {
		rep.Output = table.CSV()
	} else {
		rep.Output = table.Render()
	}
	return rep, nil
}
