package transfusion

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

// smallSpec keeps integration runs fast: the edge preset, the smallest zoo
// model, a short sequence, and a tiny search budget.
func smallSpec() RunSpec {
	return RunSpec{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion", SearchBudget: 4}
}

func TestRunContextPopulatesMetrics(t *testing.T) {
	// From an empty schedule memo, so the search plans with DPipe instead
	// of reading schedules an earlier test left.
	pipeline.ResetSchedules()
	m := NewMetrics()
	ctx := WithMetrics(context.Background(), m)
	if _, err := RunContext(ctx, smallSpec()); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, name := range []string{
		"tileseek.searches", "tileseek.rollouts", "tileseek.evaluated",
		"dpipe.plans", "dpipe.enumerated", "dpipe.dp_cells",
		"pipeline.evaluations", "pipeline.memo_hits", "pipeline.memo_misses",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (snapshot: %v)", name, snap.Counters[name], snap.Counters)
		}
	}
	if got := snap.Counters["tileseek.rollouts"]; got != 4 {
		t.Errorf("tileseek.rollouts = %d, want the budget 4", got)
	}
	if snap.Histograms["pipeline.tileseek_ms"].Count == 0 {
		t.Errorf("tileseek phase timing not recorded: %v", snap.Histograms)
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
}

func TestRunSpecProgressEvents(t *testing.T) {
	var rollouts, phaseStarts, phaseEnds int
	spec := smallSpec()
	spec.Progress = func(ev ProgressEvent) {
		switch ev.(type) {
		case RolloutDoneEvent:
			rollouts++
		case PhaseStartEvent:
			phaseStarts++
		case PhaseEndEvent:
			phaseEnds++
		}
	}
	if _, err := RunContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if rollouts != 4 {
		t.Errorf("rollout events = %d, want 4", rollouts)
	}
	if phaseStarts == 0 || phaseStarts != phaseEnds {
		t.Errorf("phase events unbalanced: %d starts, %d ends", phaseStarts, phaseEnds)
	}
}

func TestChromeTraceScheduleValidJSON(t *testing.T) {
	data, err := ChromeTraceSchedule("edge", "bert", 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	pids := map[float64]bool{}
	var complete int
	for _, ev := range events {
		pid, ok := ev["pid"].(float64)
		if !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		pids[pid] = true
		if ev["ph"] == "X" {
			complete++
			for _, key := range []string{"name", "ts", "dur", "tid"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("complete event missing %q: %v", key, ev)
				}
			}
		}
	}
	if complete == 0 {
		t.Fatal("no complete events in the trace")
	}
	// One process per sub-layer: qproj, kvproj, mha, ln, ffn.
	if len(pids) != 5 {
		t.Fatalf("trace covers %d processes, want 5", len(pids))
	}
}

func TestChromeTraceScheduleRejectsBadSpec(t *testing.T) {
	if _, err := ChromeTraceSchedule("edge", "bert", 0, 4); err == nil {
		t.Fatal("zero seq accepted")
	}
	if _, err := ChromeTraceSchedule("nope", "bert", 4096, 4); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestRunExperimentReportContext(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Skip("no experiments registered")
	}
	rep, err := RunExperimentReportContext(context.Background(), ids[0], 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != ids[0] || rep.Output == "" {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := RunExperimentReportContext(context.Background(), ids[0], -1, 0, false); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := RunExperimentReportContext(context.Background(), ids[0], 2, -1, false); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}
