package dpipe

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// candidate is one (ordering, bipartition) schedule to evaluate, in op
// indices, with the canonical key the reduction uses as its deterministic
// tie-break.
type candidate struct {
	order []int
	first []bool // nil: the unpartitioned, epoch-major schedule
	key   string
}

// candidateSet accumulates candidate schedules, skipping duplicates under an
// unambiguous canonical key — order and First set joined with separator
// bytes no op name can contain. The skip counter makes collisions
// observable.
//
// With the current enumeration the counter is defensive and stays at zero:
// TopoOrders backtracks without ever emitting the same ordering twice, each
// bipartition is uniquely determined by its First set, and the canonical
// order is added with an empty First set no bipartition can share (both
// sides of a valid bipartition are non-empty). It exists because an earlier
// fmt.Sprint-based key *could* collide, and because future enumeration
// strategies (rotations, sampled orders) may legitimately regenerate a
// candidate — the dedup, not the enumerator, is what guarantees the
// evaluated set is collision-free.
type candidateSet struct {
	index map[string]int // op name -> op index
	list  []candidate
	seen  map[string]bool
	dups  int
	dedup *obs.Counter
}

func newCandidateSet(index map[string]int, dedup *obs.Counter) *candidateSet {
	return &candidateSet{index: index, seen: map[string]bool{}, dedup: dedup}
}

// add records the candidate unless an identical (order, First) pair was
// already added, in which case the dedup counter fires; duplicates would
// schedule identically, so evaluating them would only waste DP sweeps.
func (cs *candidateSet) add(order []string, part graph.Bipartition) {
	key := strings.Join(order, "\x1f") + "\x1e" + strings.Join(part.FirstSorted(), "\x1f")
	if cs.seen[key] {
		cs.dups++
		cs.dedup.Inc()
		return
	}
	cs.seen[key] = true
	c := candidate{order: make([]int, len(order)), key: key}
	for i, n := range order {
		c.order[i] = cs.index[n]
	}
	if len(part.First) > 0 {
		c.first = make([]bool, len(cs.index))
		for n := range part.First {
			c.first[cs.index[n]] = true
		}
	}
	cs.list = append(cs.list, c)
}

// skipped returns how many duplicate adds were rejected, independent of any
// metrics registry.
func (cs *candidateSet) skipped() int { return cs.dups }

// enumeration is the candidate list a DAG shape yields: the canonical
// topological order, then the orderings of each explored bipartition's
// virtual-root DAG. It depends only on the DAG's nodes and edges and on
// Options.MaxBipartitions/MaxOrdersPerPartition — never on dims, epochs or
// the architecture — so it is computed once per shape and shared, read-only,
// by every plan of that shape.
type enumeration struct {
	cands []candidate
	// dups are the duplicates the enumeration itself produced.
	dups int
	// examined is the number of subsets the bipartition scan examined.
	examined int
	// valid is the number of valid bipartitions found; explored is the
	// prefix of them, in canonical-key order, that contributed orderings.
	valid, explored int

	// fronts maps a cost key (see compiled.frontKey) to what the plans of
	// this shape under that cost table learned (see front), evicting the
	// oldest key once frontsPerShape are held. Unlike the fields above, it
	// grows after the enumeration is shared, so it is guarded by mu.
	mu        sync.Mutex
	fronts    map[string]*front
	frontKeys []string // insertion order, oldest first
}

// frontsPerShape bounds the fronts one cached enumeration holds, and with
// candidateCacheSize the whole cache. A front averages about three entries
// and its key is the op count times 16 bytes, so a full shape costs well
// under a megabyte; a cold search over every model, arch and sequence length
// of the evaluation touches a few hundred keys per shape.
const frontsPerShape = 2048

// front is what one plan's sweeps tell every later plan under the same cost
// key, at any epoch count: all such plans share the explicit window, so a
// candidate's total is extrapolated(mkAll, slope, rest) with rest >= 0, and
// only rest differs.
//
// entries are the swept candidates that can still win. Candidate j
// is dropped when some i has mkAll_i <= mkAll_j, slope_i <= slope_j and
// key_i < key_j: rounding to nearest is monotone, so i's total is <= j's at
// every rest and i wins a tie. Candidates whose mkAll or slope is +Inf or
// NaN total +Inf or NaN at every rest and never win, so they go too.
type front struct {
	entries []frontEntry
}

// frontEntry is one candidate's index in enumeration.cands and its
// explicit-window figures (see outcome).
type frontEntry struct {
	cand         int
	mkAll, slope float64
}

// newFront reduces a plan's outcomes, indexed like cands, to a front.
func newFront(cands []candidate, results []outcome) *front {
	var exact []int
	for i, r := range results {
		if !math.IsInf(r.mkAll, 1) && !math.IsNaN(r.mkAll) && !math.IsInf(r.slope, 1) && !math.IsNaN(r.slope) {
			exact = append(exact, i)
		}
	}
	// A dominator sorts before what it dominates, and domination is
	// transitive, so comparing against the kept entries alone suffices.
	sort.Slice(exact, func(a, b int) bool {
		ra, rb := results[exact[a]], results[exact[b]]
		if ra.mkAll != rb.mkAll {
			return ra.mkAll < rb.mkAll
		}
		if ra.slope != rb.slope {
			return ra.slope < rb.slope
		}
		return cands[exact[a]].key < cands[exact[b]].key
	})
	f := &front{}
	for _, j := range exact {
		r := results[j]
		dominated := false
		for _, e := range f.entries {
			if e.mkAll <= r.mkAll && e.slope <= r.slope && cands[e.cand].key < cands[j].key {
				dominated = true
				break
			}
		}
		if !dominated {
			f.entries = append(f.entries, frontEntry{cand: j, mkAll: r.mkAll, slope: r.slope})
		}
	}
	return f
}

// cachedFront returns the front stored under key, or nil.
func (e *enumeration) cachedFront(key []byte) *front {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fronts[string(key)]
}

// storeFront records f under key, replacing an older front for the key or
// else evicting the oldest key once full.
func (e *enumeration) storeFront(key []byte, f *front) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.fronts[string(key)]; ok {
		e.fronts[string(key)] = f
		return
	}
	if e.fronts == nil {
		e.fronts = make(map[string]*front)
	}
	if len(e.frontKeys) >= frontsPerShape {
		delete(e.fronts, e.frontKeys[0])
		e.frontKeys = e.frontKeys[1:]
	}
	k := string(key)
	e.fronts[k] = f
	e.frontKeys = append(e.frontKeys, k)
}

// ResetFronts drops every cached front, so the next plan of each problem
// sweeps all of its candidates again. Benchmarks call it to measure the
// uncached plan cost; the candidate enumerations stay cached.
func ResetFronts() {
	candidateCache.Lock()
	defer candidateCache.Unlock()
	for _, e := range candidateCache.entries {
		e.mu.Lock()
		e.fronts, e.frontKeys = nil, nil
		e.mu.Unlock()
	}
}

// enumerate runs the candidate enumeration for a problem. The returned
// enumeration is non-nil even on error and carries the scan work actually
// spent (examined, valid), so callers can account an aborted scan.
func enumerate(ctx context.Context, p *Problem, index map[string]int, opts Options) (*enumeration, error) {
	e := &enumeration{}
	cs := newCandidateSet(index, nil)
	canonical, err := p.Deps.TopoSort()
	if err != nil {
		return e, err
	}
	cs.add(canonical, graph.Bipartition{})

	parts, examined, err := p.Deps.BipartitionsBounded(ctx, opts.MaxEnumeration)
	e.examined, e.valid = examined, len(parts)
	if err != nil {
		return e, fmt.Errorf("dpipe: problem %s: %w", p.Name, err)
	}
	// Sort bipartitions by canonical key before truncating, so the explored
	// prefix is a property of the problem, not of enumeration order.
	partKeys := make([]string, len(parts))
	for i, part := range parts {
		partKeys[i] = strings.Join(part.FirstSorted(), "\x1f")
	}
	sort.Sort(&keyedParts{keys: partKeys, parts: parts})
	if len(parts) > opts.MaxBipartitions {
		parts = parts[:opts.MaxBipartitions]
	}
	e.explored = len(parts)
	const rootID = "\x00ROOT"
	for _, part := range parts {
		if ctx.Err() != nil {
			return e, faults.Canceled(ctx)
		}
		// The overlap DAG of Figure 7(d): in the pipelined execution the
		// first subgraph of epoch k runs concurrently with the second
		// subgraph of epoch k-1, so the cross edges S1 -> S2 (which connect
		// different epochs) are dropped; a virtual root ties the two induced
		// subgraphs into a single DAG whose topological orders are the
		// candidate interleavings.
		overlay := graph.New()
		for node := range part.First {
			overlay.AddNode(node)
		}
		for node := range part.Second {
			overlay.AddNode(node)
		}
		for _, from := range p.Deps.Nodes() {
			for _, to := range p.Deps.Succ(from) {
				if part.First[from] == part.First[to] {
					overlay.AddEdge(from, to)
				}
			}
		}
		rooted, err := overlay.WithVirtualRoot(rootID)
		if err != nil {
			return e, err
		}
		for _, order := range rooted.TopoOrders(opts.MaxOrdersPerPartition) {
			// Strip the virtual root.
			clean := make([]string, 0, len(order)-1)
			for _, id := range order {
				if id != rootID {
					clean = append(clean, id)
				}
			}
			cs.add(clean, part)
		}
	}
	e.cands, e.dups = cs.list, cs.dups
	return e, nil
}

// keyedParts sorts a bipartition slice and its precomputed canonical keys in
// lockstep.
type keyedParts struct {
	keys  []string
	parts []graph.Bipartition
}

func (k *keyedParts) Len() int           { return len(k.keys) }
func (k *keyedParts) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedParts) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.parts[i], k.parts[j] = k.parts[j], k.parts[i]
}

// candidateCacheSize bounds the process-wide enumeration cache. A request
// plans the same few cascade shapes (one per sub-layer) dozens of times, and
// a deployment serves a handful of models, so a few dozen shapes cover it.
const candidateCacheSize = 32

// candidateCache maps a DAG shape key (see shapeKey) to its complete
// enumeration, evicting the oldest entry once full. Only complete
// enumerations are stored: a scan cut short by its budget or a cancellation
// never is.
var candidateCache = struct {
	sync.Mutex
	entries map[string]*enumeration
	order   []string // insertion order, oldest first
}{entries: make(map[string]*enumeration, candidateCacheSize)}

// shapeKey identifies what an enumeration depends on: the op names (sorted,
// so op i is the i-th), each op's predecessors, and the two enumeration
// caps.
func shapeKey(c *compiled, opts Options) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(opts.MaxBipartitions))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(opts.MaxOrdersPerPartition))
	for i, n := range c.names {
		b.WriteByte('\x1e')
		b.WriteString(n)
		for _, pred := range c.preds[i] {
			b.WriteByte('\x1f')
			b.WriteString(strconv.Itoa(pred))
		}
	}
	return b.String()
}

// frontKey appends to dst what a candidate's explicit-window sweeps depend
// on beyond the DAG shape of a PlanContext problem: the cycles table's float
// bits, the state edges, the window k and whether it covers every epoch.
// The op count is fixed by the shape and each state list is
// length-prefixed, so the encoding is unambiguous.
func (c *compiled) frontKey(dst []byte, k int, exact bool) []byte {
	for _, cyc := range c.cycles {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cyc[0]))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cyc[1]))
	}
	for _, from := range c.state {
		dst = binary.AppendUvarint(dst, uint64(len(from)))
		for _, op := range from {
			dst = binary.AppendUvarint(dst, uint64(op))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(k))
	if exact {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func cachedEnumeration(key string) *enumeration {
	candidateCache.Lock()
	defer candidateCache.Unlock()
	return candidateCache.entries[key]
}

// storeEnumeration caches e under key and returns the cached entry: e, or
// the one a concurrent plan of the same shape stored first.
func storeEnumeration(key string, e *enumeration) *enumeration {
	candidateCache.Lock()
	defer candidateCache.Unlock()
	if cur, ok := candidateCache.entries[key]; ok {
		return cur
	}
	if len(candidateCache.order) >= candidateCacheSize {
		delete(candidateCache.entries, candidateCache.order[0])
		candidateCache.order = candidateCache.order[1:]
	}
	candidateCache.entries[key] = e
	candidateCache.order = append(candidateCache.order, key)
	return e
}
