package serve

import (
	"context"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/flight"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// planCache is the serving layer's memory tier: a flight.Cache of results by
// canonical RunSpec key, so concurrent requests for one key coalesce onto one
// evaluation and completed results are retained up to the configured entry
// count. The experiments Runner shares the same helper; the serving twist is
// that the evaluation runs under a server-owned context, so joiners that
// hang up cannot kill the leader, and a completed result lands in the cache
// even when every requester has gone away — the retry then hits.
type planCache struct {
	flight *flight.Cache[transfusion.RunResult]

	hits      *obs.Counter
	misses    *obs.Counter
	inflightG *obs.Gauge
	sizeG     *obs.Gauge
}

func newPlanCache(max int, reg *obs.Registry) *planCache {
	c := &planCache{
		hits:      reg.Counter("serve.cache_hits"),
		misses:    reg.Counter("serve.cache_misses"),
		inflightG: reg.Gauge("serve.cache_inflight"),
		sizeG:     reg.Gauge("serve.cache_size"),
	}
	c.flight = flight.New[transfusion.RunResult](max, flight.Hooks{
		Join: c.join, Evict: reg.Counter("serve.cache_evictions").Inc,
	})
	return c
}

// Do returns the cached result for key, joins an in-flight evaluation of it,
// or runs eval as the leader and caches its success. cached reports whether
// the result came from the completed cache (a coalesced join still counts as
// a cache hit in the metrics — the evaluation was shared — but reports
// cached=false because the caller did wait for an evaluation). ctx bounds
// only this caller's wait, never the evaluation itself: eval runs to
// completion under whatever context the leader's closure captured.
//
// retainDegraded controls what happens when eval succeeds but reports a
// Degraded result. For keys whose spec asked for degraded fidelity
// (heuristic-only), Degraded is definitional and the result is retained like
// any other. For full-fidelity keys the degradation arose inside the
// evaluation — a transient search fault — and retaining it would pin a
// pessimistic plan under the clean key for the cache's lifetime: the caller
// and its coalesced joiners still get the degraded answer (they were
// concurrent with the fault), but the entry is not kept, so the next request
// re-evaluates.
func (c *planCache) Do(ctx context.Context, key string, retainDegraded bool, eval func() (transfusion.RunResult, error)) (transfusion.RunResult, bool, error) {
	res, hit, err := c.flight.Do(ctx, key, func() (transfusion.RunResult, bool, error) {
		c.misses.Inc()
		c.inflightG.Add(1)
		defer c.inflightG.Add(-1)
		res, err := eval()
		return res, retainDegraded || !res.Degraded, err
	})
	if hit {
		c.hits.Inc()
	} else {
		c.sizeG.Set(float64(c.flight.Len()))
	}
	return res, hit, err
}

// join accounts a caller that coalesces onto an in-flight evaluation:
// sharing the leader's work is a hit for capacity purposes. The wait is a
// span of its own — a traced joiner shows up as "plan.join" pointing at the
// leader's trace, not as an unexplained gap.
func (c *planCache) join(ctx, leader context.Context) func(error) {
	c.hits.Inc()
	_, sp := obs.StartSpan(ctx, "plan.join")
	if tr := obs.SpanFromContext(leader).TraceID(); sp != nil && tr != "" {
		sp.SetAttr("leader_trace", tr)
	}
	return sp.EndErr
}

// Put inserts a completed result directly — the warm-restart seed and the
// disk-tier promotion path. It accounts no hit or miss: nobody requested the
// key on this call.
func (c *planCache) Put(key string, res transfusion.RunResult) {
	c.flight.Put(key, res)
	c.sizeG.Set(float64(c.flight.Len()))
}

// Get peeks the completed cache for key without joining or starting an
// evaluation. The serving layer peeks the full-fidelity key before applying
// the degradation ladder: a complete cached answer is better than a freshly
// computed degraded one at any load level.
func (c *planCache) Get(key string) (transfusion.RunResult, bool) {
	res, ok := c.flight.Get(key)
	// A miss is not counted: the caller falls through to Do, which accounts
	// the request exactly once.
	if ok {
		c.hits.Inc()
	}
	return res, ok
}

// Len returns the number of completed entries currently cached.
func (c *planCache) Len() int { return c.flight.Len() }
