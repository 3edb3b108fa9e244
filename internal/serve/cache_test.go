package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

func result(system string, cycles float64) transfusion.RunResult {
	return transfusion.RunResult{System: system, Cycles: cycles}
}

func TestPlanCacheHitMissAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	evals := 0
	eval := func() (transfusion.RunResult, error) {
		evals++
		return result("transfusion", 42), nil
	}
	res, cached, err := c.Do(context.Background(), "k1", true, eval)
	if err != nil || cached || res.Cycles != 42 {
		t.Fatalf("first Do = (%v, %t, %v), want fresh result", res, cached, err)
	}
	res, cached, err = c.Do(context.Background(), "k1", true, eval)
	if err != nil || !cached || res.Cycles != 42 {
		t.Fatalf("second Do = (%v, %t, %v), want cached result", res, cached, err)
	}
	if evals != 1 {
		t.Fatalf("evaluations = %d, want 1", evals)
	}
	if h, m := reg.Counter("serve.cache_hits").Value(), reg.Counter("serve.cache_misses").Value(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
}

// Concurrent identical requests coalesce onto one evaluation: the leader
// blocks on a gate while the joiners pile up, and everyone gets the same
// result from a single eval call.
func TestPlanCacheCoalescesConcurrentIdenticalRequests(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	gate := make(chan struct{})
	started := make(chan struct{})
	var evals int32
	eval := func() (transfusion.RunResult, error) {
		close(started)
		<-gate
		evals++
		return result("transfusion", 7), nil
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", true, eval)
		leaderDone <- err
	}()
	<-started

	const joiners = 8
	var wg sync.WaitGroup
	errs := make([]error, joiners)
	ress := make([]transfusion.RunResult, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ress[i], _, errs[i] = c.Do(context.Background(), "k", true, func() (transfusion.RunResult, error) {
				t.Error("joiner ran its own evaluation")
				return transfusion.RunResult{}, nil
			})
		}(i)
	}
	// Joiners must be registered as waiters before the gate opens; poll the
	// hit counter (joins count as hits) rather than sleeping blind.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("serve.cache_hits").Value() < joiners && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	for i := range errs {
		if errs[i] != nil || ress[i].Cycles != 7 {
			t.Fatalf("joiner %d = (%v, %v)", i, ress[i], errs[i])
		}
	}
	if evals != 1 {
		t.Fatalf("evaluations = %d, want 1 (coalesced)", evals)
	}
	if m := reg.Counter("serve.cache_misses").Value(); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
}

func TestPlanCacheErrorsAreNotCached(t *testing.T) {
	c := newPlanCache(8, obs.NewRegistry())
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", true, func() (transfusion.RunResult, error) {
		return transfusion.RunResult{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not poison the key: the next call re-evaluates.
	res, cached, err := c.Do(context.Background(), "k", true, func() (transfusion.RunResult, error) {
		return result("transfusion", 1), nil
	})
	if err != nil || cached || res.Cycles != 1 {
		t.Fatalf("retry = (%v, %t, %v), want fresh success", res, cached, err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", c.Len())
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(2, reg)
	mk := func(k string) {
		if _, _, err := c.Do(context.Background(), k, true, func() (transfusion.RunResult, error) {
			return result(k, 1), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	mk("a") // refresh a: now b is least recently used
	mk("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	misses := reg.Counter("serve.cache_misses").Value()
	mk("a") // refreshed above, so it survived the eviction
	if got := reg.Counter("serve.cache_misses").Value(); got != misses {
		t.Fatalf("a was evicted: misses %d -> %d", misses, got)
	}
	mk("b") // must re-evaluate
	if got := reg.Counter("serve.cache_misses").Value(); got != misses+1 {
		t.Fatalf("b was not evicted: misses %d -> %d", misses, got)
	}
}

// A joiner's context expiring releases the joiner with ErrCanceled while the
// leader's evaluation keeps running and still lands in the cache.
func TestPlanCacheJoinerHonoursItsContext(t *testing.T) {
	c := newPlanCache(8, obs.NewRegistry())
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", true, func() (transfusion.RunResult, error) { //nolint:errcheck
		close(started)
		<-gate
		return result("transfusion", 9), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", true, nil); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("joiner err = %v, want ErrCanceled", err)
	}
	close(gate)
	// The leader's result must still arrive in the cache.
	deadline := time.Now().Add(5 * time.Second)
	for c.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res, cached, err := c.Do(context.Background(), "k", true, nil)
	if err != nil || !cached || res.Cycles != 9 {
		t.Fatalf("post-cancel Do = (%v, %t, %v), want cached 9", res, cached, err)
	}
}

// A panicking evaluation unblocks joiners with an error instead of stranding
// them, and the panic itself keeps propagating to the leader.
func TestPlanCachePanicUnblocksJoiners(t *testing.T) {
	c := newPlanCache(8, obs.NewRegistry())
	started := make(chan struct{})
	joinErr := make(chan error, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.Do(context.Background(), "k", true, func() (transfusion.RunResult, error) { //nolint:errcheck
			close(started)
			// Give the joiner a moment to register before dying.
			time.Sleep(10 * time.Millisecond)
			panic("objective bug")
		})
	}()
	<-started
	go func() {
		_, _, err := c.Do(context.Background(), "k", true, nil)
		joinErr <- err
	}()
	select {
	case err := <-joinErr:
		if err == nil {
			t.Fatal("joiner got nil error from a panicked evaluation")
		}
		// A panicked evaluation is a server-side failure: joiners must see the
		// same internal-error classification (500) the leader's recover
		// boundary produces, never a caller-fault 400.
		var ie *faults.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("joiner error %v is not *faults.InternalError", err)
		}
		if got := faults.HTTPStatus(err); got != 500 {
			t.Fatalf("joiner error maps to HTTP %d, want 500", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner deadlocked on a panicked evaluation")
	}
}

func TestPlanCacheDistinctKeysDoNotCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), k, true, func() (transfusion.RunResult, error) {
			return result(k, float64(i)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m := reg.Counter("serve.cache_misses").Value(); m != 4 {
		t.Fatalf("misses = %d, want 4", m)
	}
	if h := reg.Counter("serve.cache_hits").Value(); h != 0 {
		t.Fatalf("hits = %d, want 0", h)
	}
}

// An internally degraded result is shared with its requester but not retained
// under a full-fidelity key — the next request must re-evaluate. Keys whose
// spec asked for degraded fidelity retain degraded results like any other.
func TestPlanCacheDoesNotRetainDegradedResults(t *testing.T) {
	c := newPlanCache(8, obs.NewRegistry())
	degraded := result("transfusion", 1)
	degraded.Degraded = true
	degraded.DegradedReason = "tile search faulted"

	evals := 0
	eval := func() (transfusion.RunResult, error) {
		evals++
		return degraded, nil
	}
	res, cached, err := c.Do(context.Background(), "full", false, eval)
	if err != nil || cached || !res.Degraded {
		t.Fatalf("first Do = (%+v, %t, %v)", res, cached, err)
	}
	if _, ok := c.Get("full"); ok {
		t.Fatal("degraded result was retained under the full-fidelity key")
	}
	if _, cached, err = c.Do(context.Background(), "full", false, eval); err != nil || cached {
		t.Fatalf("second Do did not re-evaluate: cached=%t err=%v", cached, err)
	}
	if evals != 2 {
		t.Fatalf("evals = %d, want 2 (no retention between them)", evals)
	}

	if _, _, err := c.Do(context.Background(), "full|heur=true", true, eval); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("full|heur=true"); !ok {
		t.Fatal("definitionally degraded result was not retained under its own key")
	}
}

// A traced joiner's wait is a "plan.join" span in its own trace, named after
// the trace whose request leads the evaluation.
func TestPlanCacheJoinSpanNamesLeaderTrace(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	tracer := newTracer()
	leaderTr, leaderRoot := tracer.StartRequest("leader", "")
	joinerTr, joinerRoot := tracer.StartRequest("joiner", "")
	gate, started := make(chan struct{}), make(chan struct{})
	go c.Do(obs.ContextWithSpan(context.Background(), leaderRoot), "k", true, func() (transfusion.RunResult, error) { //nolint:errcheck
		close(started)
		<-gate
		return result("transfusion", 3), nil
	})
	<-started
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do(obs.ContextWithSpan(context.Background(), joinerRoot), "k", true, nil)
		joined <- err
	}()
	// A join counts as a hit before the joiner waits.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("serve.cache_hits").Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	exp, ok := tracer.Export(joinerTr.ID())
	if !ok {
		t.Fatal("joiner trace not found")
	}
	spans := findSpans(exp.Spans, "plan.join")
	if len(spans) != 1 {
		t.Fatalf("%d plan.join spans in the joiner's trace, want 1", len(spans))
	}
	var leader string
	for _, a := range spans[0].Attrs {
		if a.K == "leader_trace" {
			leader = a.V
		}
	}
	if leader != leaderTr.ID() {
		t.Fatalf("plan.join leader_trace = %q, want the leader's trace %q", leader, leaderTr.ID())
	}
}
