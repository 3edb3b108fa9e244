package dpipe

import (
	"context"
	"encoding/json"
	"sort"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// PlanContext reports the enumeration it performed through its counters: a
// nonzero examined count bounded by the budget, and the candidate tally
// matching the returned plan.
func TestPlanCountsEnumeration(t *testing.T) {
	p := mhaProblem(t, 8)
	opts := DefaultOptions()
	reg := obs.NewRegistry()
	plan, err := PlanContext(obs.WithMetrics(context.Background(), reg), p, arch.Edge(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("dpipe.enumerated").Value(); n <= 0 || n > int64(opts.MaxEnumeration) {
		t.Fatalf("dpipe.enumerated = %d, budget = %d", n, opts.MaxEnumeration)
	}
	if n := reg.Counter("dpipe.bipartitions").Value(); n <= 0 {
		t.Fatalf("dpipe.bipartitions = %d", n)
	}
	if n := reg.Counter("dpipe.candidates").Value(); n != int64(plan.Candidates) {
		t.Fatalf("dpipe.candidates = %d, plan reports %d", n, plan.Candidates)
	}
}

// Trace entries come out deterministically ordered: by start cycle, then op
// name, then epoch — so diffs, goldens, and exports are stable across runs.
func TestTraceEntriesDeterministicallyOrdered(t *testing.T) {
	p := mhaProblem(t, 8)
	spec := arch.Edge()
	plan, err := Plan(p, spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceSchedule(p, spec, plan.Order, plan.Bipartition.First, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(tr.Entries, func(i, j int) bool {
		a, b := tr.Entries[i], tr.Entries[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Epoch < b.Epoch
	}) {
		t.Fatalf("trace entries unordered: %+v", tr.Entries)
	}
	// Two builds of the same schedule must agree entry-for-entry.
	tr2, err := TraceSchedule(p, spec, plan.Order, plan.Bipartition.First, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != len(tr2.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(tr.Entries), len(tr2.Entries))
	}
	for i := range tr.Entries {
		if tr.Entries[i] != tr2.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, tr.Entries[i], tr2.Entries[i])
		}
	}
}

func TestChromeTraceEventsFromTrace(t *testing.T) {
	p := twoStageProblem(3)
	tr, err := TraceSchedule(p, arch.Cloud(), nil, nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := tr.ChromeTraceEvents(7)
	// Leading metadata: process name plus the two PE-array lanes.
	if len(events) != len(tr.Entries)+3 {
		t.Fatalf("events = %d, want %d", len(events), len(tr.Entries)+3)
	}
	if events[0].Phase != "M" || events[0].Name != "process_name" || events[0].Pid != 7 {
		t.Fatalf("process metadata malformed: %+v", events[0])
	}
	for _, ev := range events[3:] {
		if ev.Phase != "X" {
			t.Fatalf("schedule event phase = %q", ev.Phase)
		}
		if ev.Pid != 7 || (ev.Tid != tid2D && ev.Tid != tid1D) {
			t.Fatalf("event lane malformed: %+v", ev)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("negative time: %+v", ev)
		}
		if _, ok := ev.Args["epoch"]; !ok {
			t.Fatalf("event missing epoch arg: %+v", ev)
		}
	}
	// The whole thing must round-trip through the JSON array format.
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
}
