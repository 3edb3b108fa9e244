package cluster

import (
	"context"
	"sync"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
)

// Prober is the active failure detector: one goroutine per configured peer
// hits the peer's /readyz on a jittered interval and feeds the outcome into
// Cluster.ReportProbe. Probes to one peer never overlap (the loop is
// synchronous), so "per-peer backoff" falls out of the delay schedule: dead
// peers are probed at 4x the base interval, everyone else at base, each gap
// jittered deterministically from the configured seed.
//
// The prober honours the chaos site cluster.probe (struck once per probe,
// before the round-trip) so membership tests can kill, partition, and slow
// peers on a fixed-seed schedule without real processes dying.
type Prober struct {
	c      *Cluster
	cancel context.CancelFunc
	done   chan struct{}
	wg     sync.WaitGroup // per-peer probe loops

	mu      sync.Mutex
	running map[string]bool
}

// StartProber launches the failure detector; ctx cancellation or Stop ends
// it. At most one prober per Cluster — a second call returns the running
// one. The context also carries the chaos injector, if any.
func (c *Cluster) StartProber(ctx context.Context) *Prober {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prober != nil {
		return c.prober
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Prober{
		c:       c,
		cancel:  cancel,
		done:    make(chan struct{}),
		running: make(map[string]bool),
	}
	c.prober = p
	go p.supervise(pctx)
	return p
}

// Stop halts all probe loops and waits for in-flight probes to finish. Safe
// to call more than once.
func (p *Prober) Stop() {
	p.cancel()
	<-p.done
}

// supervise keeps one probe loop running per configured peer, re-checking
// at the base interval so peers added by a Reload get probed and loops for
// removed peers wind down (each loop exits on its own when its peer leaves
// the configured set).
func (p *Prober) supervise(ctx context.Context) {
	defer close(p.done)
	ticker := time.NewTicker(p.c.probeInterval)
	defer ticker.Stop()
	for {
		for _, peer := range p.c.Peers() {
			if peer == p.c.self {
				continue
			}
			p.mu.Lock()
			if !p.running[peer] {
				p.running[peer] = true
				p.wg.Add(1)
				go p.probeLoop(ctx, peer)
			}
			p.mu.Unlock()
		}
		select {
		case <-ctx.Done():
			p.wg.Wait()
			return
		case <-ticker.C:
		}
	}
}

// probeLoop drives one peer: sleep the jittered delay, probe once, repeat —
// until the context ends or the peer leaves the configured set.
func (p *Prober) probeLoop(ctx context.Context, peer string) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.running, peer)
		p.mu.Unlock()
	}()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for n := 0; ; n++ {
		if !p.c.hasPeer(peer) {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(p.delay(peer, n))
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if !p.c.hasPeer(peer) {
			return
		}
		p.probeOnce(ctx, peer)
	}
}

// delay computes the gap before probe n of peer: the base interval (4x for
// dead peers — the per-peer backoff), jittered into [0.5, 1.5)x by a
// deterministic hash of (seed, self, peer, n). Hashing self is what keeps
// replicas sharing a seed from probing one peer in lockstep. Probe 0 gets a
// quarter of that so boot converges fast while replicas still spread out.
func (p *Prober) delay(peer string, n int) time.Duration {
	base := p.c.probeInterval
	if p.c.State(peer) == StateDead {
		base *= 4
	}
	u := mix(mix(p.c.probeSeed^fnv64(p.c.self)) ^ fnv64(peer) ^ mix(uint64(n)))
	frac := 0.5 + float64(u>>11)/float64(1<<53) // [0.5, 1.5)
	d := time.Duration(float64(base) * frac)
	if n == 0 {
		d /= 4
	}
	return d
}

// probeOnce runs a single /readyz round-trip and reports the verdict. A
// failure observed only because the prober itself is shutting down is
// discarded — it says nothing about the peer.
func (p *Prober) probeOnce(ctx context.Context, peer string) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	start := time.Now()
	err := chaos.SiteFrom(ctx, chaos.SiteClusterProbe).Strike(pctx)
	if err == nil {
		err = p.c.pool.For(peer).Ready(pctx)
	}
	rtt := time.Since(start)
	if err != nil && ctx.Err() != nil {
		return
	}
	p.c.reg.Counter("cluster.probe.attempts").Inc()
	if err != nil {
		p.c.reg.Counter("cluster.probe.failures").Inc()
		// Failures report the full probe timeout into the EWMA: whether
		// the probe timed out or was refused instantly, the peer is not
		// answering at a usable latency.
		rtt = probeTimeout
	}
	p.c.ReportProbe(peer, err == nil, rtt)
}

// hasPeer reports whether peer is still in the configured set (self aside).
func (c *Cluster) hasPeer(peer string) bool {
	if peer == c.self {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.health[peer]
	return ok
}
