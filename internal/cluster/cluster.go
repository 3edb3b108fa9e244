package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// Config describes one replica's view of the cluster.
type Config struct {
	// Self is this replica's own advertised base URL, exactly as it appears
	// in Peers (e.g. "http://10.0.0.3:8080").
	Self string
	// Peers is the initial full member list, Self included. Every replica
	// must be configured with the same list (order irrelevant) for ownership
	// to agree cluster-wide. The list is no longer static: Reload swaps it
	// live (the SIGHUP -peers-file path), and the prober's dead/alive
	// verdicts exclude and readmit members without touching it.
	Peers []string
	// FetchTimeout bounds one peer plan fetch, retries included (default 10s).
	// On expiry the caller falls back to a local search, so this is the most
	// extra latency a cluster miss can add to a request. PeerTimeout clamps
	// it per-endpoint once the prober observes a peer running slow.
	FetchTimeout time.Duration
	// ClientOptions tunes the per-peer transport (retries, breaker, hedging).
	// Zero values take the client package defaults, except MaxRetries, which
	// defaults to 1 here: a struggling peer is better answered by the local
	// fallback search than by a long retry ladder.
	ClientOptions client.Options
	// Probe tunes the failure detector (zero fields take ProbeConfig
	// defaults). The detector only acts once StartProber runs — without a
	// prober every configured peer stays alive forever, which is exactly
	// the static-membership behaviour of earlier releases.
	Probe ProbeConfig
	// Metrics receives the membership gauges (cluster.member.alive/
	// suspect/dead, cluster.ring.generation) and the prober's counters.
	// Nil disables them.
	Metrics *obs.Registry
	// OnChange, when set, is called after every effective membership change
	// (ring rebuild) with the new generation and live member list. It runs
	// outside the membership lock, on the goroutine that triggered the
	// change; keep it fast (the daemon logs from it).
	OnChange func(gen uint64, members []string)
}

// Cluster is one replica's handle on the sharded plan space: ownership
// lookups over the live ring, the failure detector feeding it, and the
// per-peer fetch transport. Ownership reads (Owner/PrevOwner/Members/
// Generation) are lock-free loads of an immutable view swapped atomically
// by reloads and probe transitions; everything is safe for concurrent use.
type Cluster struct {
	self         string
	pool         *client.Pool
	fetchTimeout time.Duration
	probe        ProbeConfig
	reg          *obs.Registry
	onChange     func(uint64, []string)

	// mu guards the configured peer list and health map, and serializes
	// ring rebuilds. The request path never takes it for ownership reads.
	mu     sync.Mutex
	peers  []string                 // configured members, sorted, self included
	health map[string]*memberHealth // keyed by peer URL, self excluded
	prober *Prober

	cur atomic.Pointer[view]
}

// normalizeURL validates and canonicalises one peer URL (scheme+host only,
// trailing slash trimmed).
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: bad peer URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: peer URL %q must be http(s)", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: peer URL %q has no host", raw)
	}
	return raw, nil
}

// New builds a Cluster. Self must appear in Peers; duplicates are collapsed.
// A single-member cluster (just Self) is valid and owns every key — the
// degenerate case lets one -peers flag template cover every replica count.
// All members start alive at generation 1.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(cfg.Peers))
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		n, err := normalizeURL(p)
		if err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			peers = append(peers, n)
		}
	}
	if !seen[self] {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, peers)
	}
	sort.Strings(peers)
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 10 * time.Second
	}
	opts := cfg.ClientOptions
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 1
	}
	if opts.HTTPClient == nil {
		// The pool default (90s overall timeout) is tuned for external
		// callers riding out a full search; a peer fetch is bounded by
		// FetchTimeout via the context, so the transport cap just needs to
		// be above it.
		opts.HTTPClient = &http.Client{Timeout: cfg.FetchTimeout + 5*time.Second}
	}
	c := &Cluster{
		self:         self,
		pool:         client.NewPool(opts),
		fetchTimeout: cfg.FetchTimeout,
		probe:        cfg.Probe.withDefaults(),
		reg:          cfg.Metrics,
		onChange:     cfg.OnChange,
		peers:        peers,
		health:       make(map[string]*memberHealth, len(peers)),
	}
	for _, p := range peers {
		if p != self {
			c.health[p] = &memberHealth{state: StateAlive}
		}
	}
	c.cur.Store(&view{ring: NewRing(DefaultVNodes, peers...), gen: 1})
	c.mu.Lock()
	c.updateGaugesLocked()
	c.mu.Unlock()
	return c, nil
}

// Self returns this replica's own normalised URL.
func (c *Cluster) Self() string { return c.self }

// Members returns the live member list (configured minus dead), sorted —
// the set that currently owns keys.
func (c *Cluster) Members() []string { return c.cur.Load().ring.Members() }

// Owner returns the live member owning key.
func (c *Cluster) Owner(key string) string { return c.cur.Load().ring.Owner(key) }

// IsSelf reports whether member is this replica.
func (c *Cluster) IsSelf(member string) bool { return member == c.self }

// FetchTimeout is the configured flat bound on one peer fetch; PeerTimeout
// gives the per-endpoint effective bound.
func (c *Cluster) FetchTimeout() time.Duration { return c.fetchTimeout }

// Fetch asks owner for a plan over the internal peer route. The owner's
// breaker/retry state is isolated per peer (client.Pool), so a dead owner
// fails fast here without poisoning fetches to other members. Callers treat
// any error as "compute locally instead" — a fetch failure must never fail
// the user's request.
func (c *Cluster) Fetch(ctx context.Context, owner string, req client.PlanRequest) (*client.PlanResponse, error) {
	if owner == c.self {
		return nil, fmt.Errorf("cluster: fetch from self")
	}
	if !c.cur.Load().ring.Has(owner) {
		return nil, fmt.Errorf("cluster: %q is not a member", owner)
	}
	return c.pool.For(owner).PeerPlan(ctx, req)
}

// FetchCached asks peer for a plan from its caches only (the one-hop remap
// path): the peer answers from memory or disk and never searches, so this
// is cheap enough to try before a local search when ownership of a key has
// just moved here. The same never-fail contract as Fetch applies.
func (c *Cluster) FetchCached(ctx context.Context, peer string, req client.PlanRequest) (*client.PlanResponse, error) {
	if peer == c.self {
		return nil, fmt.Errorf("cluster: fetch from self")
	}
	if !c.CanFetch(peer) {
		return nil, fmt.Errorf("cluster: %q is not a fetchable member", peer)
	}
	return c.pool.For(peer).PeerCached(ctx, req)
}
