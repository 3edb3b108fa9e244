// Package cluster is transfusiond's peer-aware tier: a consistent-hash ring
// that shards the RunSpec.CanonicalKey() space across a static set of
// replicas, and a small replica-to-replica plan-fetch transport built on the
// public client package (so peer RPCs get the same retries, per-endpoint
// circuit breaker, and typed errors external callers do).
//
// The contract the serving layer builds on:
//
//   - every replica, given the same member list, computes the same owner for
//     every key (deterministic ordering — member insertion order is
//     irrelevant);
//   - keys spread across replicas within a documented bound (±30% of fair
//     share at >= 128 virtual nodes per member, property-tested);
//   - topology changes remap the minimal key fraction: adding a member moves
//     keys only onto the new member, removing a member moves only the keys it
//     owned (property-tested — no full reshuffle, so a rolling restart does
//     not stampede the search tier).
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member of every cluster ring.
// Replicas must agree on it, or they disagree on key ownership, so it is a
// constant rather than a setting. 128 points per member keeps per-replica
// load within ±30% of fair share (see TestRingBalanceWithinDocumentedBound)
// at negligible memory cost.
const DefaultVNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring. Build one with NewRing; derive
// changed topologies with Add/Remove (the originals are untouched, so a
// topology swap is a pointer store).
type Ring struct {
	vnodes  int
	points  []point  // sorted by (hash, member)
	members []string // sorted, deduplicated
}

// fnv64 is FNV-1a, the same fold the chaos package uses for site names.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the SplitMix64 finalizer: FNV alone clusters on short, similar
// strings (peer URLs differ by one port digit; canonical keys by one seq
// digit), and the finalizer scatters those into a uniform stream.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashKey places a canonical key on the ring.
func hashKey(key string) uint64 { return mix(fnv64(key)) }

// hashPoint places virtual node i of a member on the ring.
func hashPoint(member string, i int) uint64 {
	return mix(fnv64(member) ^ mix(uint64(i)))
}

// NewRing builds a ring with vnodes virtual nodes per member (<= 0 takes
// DefaultVNodes). Members are deduplicated; order is irrelevant — two rings
// built from permutations of the same list are identical.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hashPoint(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare, but possible) break on the member
		// name so ownership never depends on sort stability.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member owning key: the first virtual node at or clockwise
// of the key's hash, wrapping at the top. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the ring's member list, sorted. The slice is a copy.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Add returns a new ring with member joined; r is unchanged. Adding an
// existing member returns an identical ring.
func (r *Ring) Add(member string) *Ring {
	return NewRing(r.vnodes, append(r.Members(), member)...)
}

// Remove returns a new ring with member left; r is unchanged.
func (r *Ring) Remove(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(r.vnodes, kept...)
}

// String summarises the ring for logging.
func (r *Ring) String() string {
	return fmt.Sprintf("cluster: ring of %d members, %d vnodes each", len(r.members), r.vnodes)
}
