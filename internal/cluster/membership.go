package cluster

import (
	"fmt"
	"sort"
	"time"
)

// MemberState is one peer's position in the failure-detection lifecycle.
//
// Transitions are driven only by consecutive probe outcomes (hysteresis):
//
//	alive   --suspectAfter (2) consecutive failures-->  suspect
//	suspect --deadAfter (4) consecutive failures----->  dead
//	any     --reviveAfter (2) consecutive successes-->  alive
//
// Only the alive<->dead boundary rebuilds the ring: a suspect member keeps
// its key ownership (it may just be slow), it merely gets a clamped fetch
// timeout (see Cluster.PeerTimeout). One slow scrape can therefore never
// move a single key.
type MemberState int

const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

// String returns the state's metrics/log label.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("MemberState(%d)", int(s))
	}
}

// The failure detector's fixed settings. Thresholds count *consecutive*
// probe outcomes, so the detector has hysteresis by construction, and
// deadAfter > suspectAfter means suspect is always visited first.
const (
	// probeTimeout bounds one /readyz round-trip; a probe that outlives it
	// counts as a failure. It may exceed the probe interval: each peer's
	// probe loop is synchronous, so a slow probe simply delays that peer's
	// next probe rather than piling up — and a generous timeout is what
	// keeps a busy-but-alive peer from being mistaken for a dead one, while
	// genuinely dead peers still fail fast (connection refused).
	probeTimeout = time.Second
	// suspectAfter consecutive failures demote alive to suspect.
	suspectAfter = 2
	// deadAfter consecutive failures declare a peer dead and remove it
	// from the ring.
	deadAfter = 4
	// reviveAfter consecutive successes resurrect a suspect or dead peer.
	reviveAfter = 2
)

// memberHealth is one peer's detector state. Guarded by Cluster.mu.
type memberHealth struct {
	state      MemberState
	consecFail int
	consecOK   int
	// ewmaMS is the exponentially-weighted moving average of probe
	// round-trip time in milliseconds (alpha 0.3; zero until the first
	// sample). Failed probes contribute the full probe timeout, so a peer
	// that stops answering sees its EWMA climb toward the timeout.
	ewmaMS float64
}

// view is one immutable generation of the ring, swapped atomically so
// ownership lookups on the request path never take the membership lock.
type view struct {
	ring *Ring
	// prev is the previous generation's ring (nil at generation 1). It is
	// kept exactly one generation deep: that is what the one-hop remap
	// protocol needs, and bounding it means a flapping peer can't chain
	// unbounded history.
	prev *Ring
	gen  uint64
}

// ewmaAlpha weights new probe samples into memberHealth.ewmaMS.
const ewmaAlpha = 0.3

// Generation returns the current ring generation. It starts at 1 and bumps
// once per effective membership change (a reload or probe transition that
// does not change the live member set does not bump it — that is what lets
// back-to-back identical SIGHUPs coalesce).
func (c *Cluster) Generation() uint64 { return c.cur.Load().gen }

// Peers returns the configured member list (self included, sorted) — the
// set being probed, regardless of health. Compare Members, which returns
// only the live (non-dead) members that own keys.
func (c *Cluster) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.peers))
	copy(out, c.peers)
	return out
}

// State returns peer's lifecycle state. Self is always alive; a URL outside
// the configured set is reported dead.
func (c *Cluster) State(peer string) MemberState {
	if peer == c.self {
		return StateAlive
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.health[peer]; ok {
		return h.state
	}
	return StateDead
}

// CanFetch reports whether peer is a usable fetch target: someone other
// than self who is either a configured member not declared dead, or a
// member of the previous ring generation that a reload just removed. The
// latter grace window is what makes scale-down remap-safe — a SIGHUP that
// drops a still-running replica leaves its warm cache reachable for one
// generation, so its keys migrate by cheap cache fetches instead of fresh
// searches. The remap path uses CanFetch to avoid pointing a
// previous-owner fetch at a corpse.
func (c *Cluster) CanFetch(peer string) bool {
	if peer == "" || peer == c.self {
		return false
	}
	c.mu.Lock()
	h, known := c.health[peer]
	st := StateDead
	if known {
		st = h.state
	}
	c.mu.Unlock()
	if known {
		return st != StateDead
	}
	v := c.cur.Load()
	return v.prev != nil && v.prev.Has(peer)
}

// PrevOwner returns the member that owned key under the previous ring
// generation, or "" when there is no previous generation or ownership did
// not move. The serve layer calls this on a local miss for a key it owns:
// a non-empty answer means the key just remapped here, and one cache-only
// fetch from the old owner can replace a full local search.
func (c *Cluster) PrevOwner(key string) string {
	v := c.cur.Load()
	if v.prev == nil {
		return ""
	}
	prev := v.prev.Owner(key)
	if prev == "" || prev == v.ring.Owner(key) {
		return ""
	}
	return prev
}

// PeerTimeout bounds one plan fetch from peer. Healthy peers get the flat
// configured FetchTimeout — a fetch legitimately rides the owner's full
// search, which dwarfs any probe round-trip. Once the prober shows the peer
// is struggling (state suspect/dead, or probe EWMA above half the probe
// timeout), the bound clamps to 4x the EWMA (floor 250ms) so one
// slow-but-alive peer can't consume the whole request deadline before the
// local fallback search starts.
func (c *Cluster) PeerTimeout(peer string) time.Duration {
	flat := c.fetchTimeout
	c.mu.Lock()
	h, ok := c.health[peer]
	var ewmaMS float64
	st := StateAlive
	if ok {
		ewmaMS, st = h.ewmaMS, h.state
	}
	c.mu.Unlock()
	if !ok || ewmaMS <= 0 {
		return flat
	}
	ewma := time.Duration(ewmaMS * float64(time.Millisecond))
	if st == StateAlive && ewma <= probeTimeout/2 {
		return flat
	}
	clamped := 4 * ewma
	if clamped < 250*time.Millisecond {
		clamped = 250 * time.Millisecond
	}
	if clamped > flat {
		clamped = flat
	}
	return clamped
}

// Reload replaces the configured member list (the daemon's SIGHUP path).
// Self must remain in the new list; an empty list degrades to single-node
// mode (ring = {self}). Health state carries over for peers present in both
// lists; new peers start alive (the prober will demote them if they are
// not), and departed peers drop their detector and client-pool state. A
// reload to the identical configured list is a no-op — no ring rebuild, no
// generation bump — so back-to-back identical SIGHUPs coalesce.
func (c *Cluster) Reload(peers []string) error {
	norm := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		n, err := normalizeURL(p)
		if err != nil {
			return err
		}
		if !seen[n] {
			seen[n] = true
			norm = append(norm, n)
		}
	}
	if len(norm) == 0 {
		// Empty peers file: degrade to single-node mode rather than an
		// empty ring that owns nothing.
		norm = []string{c.self}
		seen[c.self] = true
	}
	if !seen[c.self] {
		return fmt.Errorf("cluster: reload rejected: self %q is not in the new peer list %v", c.self, norm)
	}
	sort.Strings(norm)

	c.mu.Lock()
	if sameMembers(c.peers, norm) {
		c.mu.Unlock()
		return nil
	}
	for p := range c.health {
		if !seen[p] {
			delete(c.health, p)
		}
	}
	for _, p := range norm {
		if p == c.self {
			continue
		}
		if _, ok := c.health[p]; !ok {
			c.health[p] = &memberHealth{state: StateAlive}
		}
	}
	c.peers = norm
	changed, gen, members := c.rebuildLocked()
	c.mu.Unlock()

	c.pool.Prune(norm)
	if changed && c.onChange != nil {
		c.onChange(gen, members)
	}
	return nil
}

// ReportProbe feeds one probe outcome for peer into the failure detector
// and returns the peer's resulting state. ok is the probe verdict; rtt is
// the observed round-trip (callers report the probe timeout for failures).
// The prober is the normal caller, but tests drive it directly for
// deterministic state walks.
func (c *Cluster) ReportProbe(peer string, ok bool, rtt time.Duration) MemberState {
	c.mu.Lock()
	h, known := c.health[peer]
	if !known {
		// A probe completed for a peer removed by a concurrent reload;
		// nothing to update.
		c.mu.Unlock()
		return StateDead
	}
	if ms := float64(rtt) / float64(time.Millisecond); ms > 0 {
		if h.ewmaMS == 0 {
			h.ewmaMS = ms
		} else {
			h.ewmaMS = ewmaAlpha*ms + (1-ewmaAlpha)*h.ewmaMS
		}
	}
	was := h.state
	if ok {
		h.consecOK++
		h.consecFail = 0
		if h.state != StateAlive && h.consecOK >= reviveAfter {
			h.state = StateAlive
		}
	} else {
		h.consecFail++
		h.consecOK = 0
		switch {
		case h.consecFail >= deadAfter:
			h.state = StateDead
		case h.consecFail >= suspectAfter:
			if h.state == StateAlive {
				h.state = StateSuspect
			}
		}
	}
	now := h.state
	var changed bool
	var gen uint64
	var members []string
	if (was == StateDead) != (now == StateDead) {
		changed, gen, members = c.rebuildLocked()
	} else if was != now {
		c.updateGaugesLocked()
	}
	c.mu.Unlock()

	if changed && c.onChange != nil {
		c.onChange(gen, members)
	}
	return now
}

// rebuildLocked recomputes the live ring from the configured peers minus
// dead members. If the live set is unchanged it only refreshes gauges; when
// it changes, the new view keeps the outgoing ring as prev and bumps the
// generation. Callers hold c.mu; the returned snapshot lets them invoke
// OnChange after unlocking.
func (c *Cluster) rebuildLocked() (changed bool, gen uint64, members []string) {
	live := make([]string, 0, len(c.peers))
	for _, p := range c.peers {
		if p == c.self || c.health[p].state != StateDead {
			live = append(live, p)
		}
	}
	old := c.cur.Load()
	if sameMembers(old.ring.members, live) {
		c.updateGaugesLocked()
		return false, old.gen, old.ring.Members()
	}
	v := &view{ring: NewRing(DefaultVNodes, live...), prev: old.ring, gen: old.gen + 1}
	c.cur.Store(v)
	c.updateGaugesLocked()
	return true, v.gen, v.ring.Members()
}

// updateGaugesLocked refreshes the membership gauges. Callers hold c.mu.
func (c *Cluster) updateGaugesLocked() {
	if c.reg == nil {
		return
	}
	alive, suspect, dead := 1, 0, 0 // self is always alive
	for _, h := range c.health {
		switch h.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	c.reg.Gauge("cluster.member.alive").Set(float64(alive))
	c.reg.Gauge("cluster.member.suspect").Set(float64(suspect))
	c.reg.Gauge("cluster.member.dead").Set(float64(dead))
	c.reg.Gauge("cluster.ring.generation").Set(float64(c.cur.Load().gen))
}

// sameMembers reports whether two sorted member lists are identical.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
