package dpipe

import (
	"context"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// The dedup in candidateSet is defensive: the current enumeration never
// produces a duplicate (see the type's doc). These tests pin down both
// halves of that claim — the mechanism really fires on a collision, and the
// real enumeration really never drives it.

func TestCandidateSetDedupFiresOnCollision(t *testing.T) {
	reg := obs.NewRegistry()
	cs := newCandidateSet(map[string]int{"a": 0, "b": 1, "c": 2}, reg.Counter("dpipe.dedup_skipped"))

	part := graph.Bipartition{
		First:  map[string]bool{"a": true},
		Second: map[string]bool{"b": true},
	}
	cs.add([]string{"a", "b"}, part)
	cs.add([]string{"a", "b"}, part) // identical (order, First): must dedup
	if len(cs.list) != 1 {
		t.Fatalf("candidate list = %d entries, want 1", len(cs.list))
	}
	if cs.skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", cs.skipped())
	}
	if got := reg.Counter("dpipe.dedup_skipped").Value(); got != 1 {
		t.Fatalf("dpipe.dedup_skipped = %d, want 1", got)
	}

	// Same order under a different First set is a distinct candidate: the
	// bipartition changes the instance sequencing even when the per-epoch
	// order text matches.
	other := graph.Bipartition{
		First:  map[string]bool{"a": true, "b": true},
		Second: map[string]bool{"c": true},
	}
	cs.add([]string{"a", "b"}, other)
	if len(cs.list) != 2 {
		t.Fatalf("distinct First set was deduped: list = %d entries", len(cs.list))
	}

	// The canonical order's empty-First key cannot collide with any real
	// bipartition (valid bipartitions have non-empty sides).
	cs.add([]string{"a", "b"}, graph.Bipartition{})
	if len(cs.list) != 3 || cs.skipped() != 1 {
		t.Fatalf("empty-First candidate collided: list=%d skipped=%d", len(cs.list), cs.skipped())
	}
}

func TestCandidateSetNilCounterSafe(t *testing.T) {
	cs := newCandidateSet(map[string]int{"x": 0}, nil) // obs counters are nil-receiver safe
	cs.add([]string{"x"}, graph.Bipartition{})
	cs.add([]string{"x"}, graph.Bipartition{})
	if len(cs.list) != 1 || cs.skipped() != 1 {
		t.Fatalf("list=%d skipped=%d, want 1/1", len(cs.list), cs.skipped())
	}
}

// TestPlanEnumerationNeverDedups sweeps real problems — the MHA cascade and
// the two-stage pipeline at several epoch counts — and asserts the
// enumeration emitted zero duplicates: TopoOrders backtracks uniquely and
// every bipartition has a distinct First set, so the counter must stay 0.
func TestPlanEnumerationNeverDedups(t *testing.T) {
	for _, epochs := range []int64{1, 4, 16} {
		for name, p := range map[string]*Problem{
			"mha":      mhaProblem(t, epochs),
			"twostage": twoStageProblem(epochs),
		} {
			reg := obs.NewRegistry()
			ctx := obs.WithMetrics(context.Background(), reg)
			if _, err := PlanContext(ctx, p, arch.Cloud(), DefaultOptions()); err != nil {
				t.Fatalf("%s epochs=%d: %v", name, epochs, err)
			}
			if got := reg.Snapshot().Counters["dpipe.dedup_skipped"]; got != 0 {
				t.Errorf("%s epochs=%d: enumeration emitted %d duplicate candidates", name, epochs, got)
			}
		}
	}
}
