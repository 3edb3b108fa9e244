package client

import (
	"sort"
	"strings"
	"sync"
)

// Pool hands out one Client per base URL, built lazily from a shared Options
// template. Its reason to exist is failure isolation: the circuit breaker and
// backoff jitter stream live on the Client, so callers that talk to N servers
// through one Pool get N independent breakers — one slow or dead peer opens
// only its own breaker, and requests to the healthy peers keep flowing. (A
// single Client reused across endpoints would conflate them: five 5xx
// responses from one peer would fail-fast requests to all of them.)
//
// transfusiond's cluster tier is the canonical user: one Pool per daemon,
// one Client per peer replica.
type Pool struct {
	opts Options

	mu      sync.Mutex
	clients map[string]*Client
}

// NewPool builds a Pool whose Clients share opts. Options.Seed, when set,
// stays reproducible per endpoint: each Client's jitter stream is derived
// from the pool seed and its base URL, so two pools built with the same seed
// and endpoints behave identically without the endpoints sharing a stream.
func NewPool(opts Options) *Pool {
	return &Pool{opts: opts.withDefaults(), clients: make(map[string]*Client)}
}

// For returns the Client for baseURL, creating it on first use. The same
// (trailing-slash-normalised) URL always returns the same Client, so breaker
// state accumulates per endpoint across calls.
func (p *Pool) For(baseURL string) *Client {
	key := strings.TrimRight(baseURL, "/")
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[key]; ok {
		return c
	}
	opts := p.opts
	// Derive a per-endpoint jitter seed: deterministic given the pool seed,
	// distinct per endpoint (splitmix64 of the FNV-1a of the URL).
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	seed := uint64(opts.Seed) ^ h
	if seed == 0 {
		seed = h | 1
	}
	opts.Seed = int64(seed)
	c := newClient(key, opts)
	p.clients[key] = c
	return c
}

// Prune drops the Clients for every endpoint not in keep (same
// trailing-slash normalisation as For), releasing their breaker and jitter
// state, and returns how many were dropped. A long-lived pool under dynamic
// cluster membership calls this on every reconfiguration so departed
// replicas don't accumulate per-endpoint state forever; an endpoint that
// later rejoins gets a fresh Client — and a closed breaker — from For.
func (p *Pool) Prune(keep []string) int {
	keepSet := make(map[string]bool, len(keep))
	for _, u := range keep {
		keepSet[strings.TrimRight(u, "/")] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	dropped := 0
	for k := range p.clients {
		if !keepSet[k] {
			delete(p.clients, k)
			dropped++
		}
	}
	return dropped
}

// Endpoints lists the base URLs the pool has built Clients for, sorted.
func (p *Pool) Endpoints() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.clients))
	for k := range p.clients {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
