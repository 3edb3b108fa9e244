package dpipe

import (
	"context"
	"fmt"
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

func cachedEnumeration(key string) *enumeration {
	candidateCache.Lock()
	defer candidateCache.Unlock()
	return candidateCache.entries[key]
}

func storeEnumeration(key string, e *enumeration) {
	candidateCache.Lock()
	defer candidateCache.Unlock()
	if _, ok := candidateCache.entries[key]; ok {
		return
	}
	if len(candidateCache.order) >= candidateCacheSize {
		delete(candidateCache.entries, candidateCache.order[0])
		candidateCache.order = candidateCache.order[1:]
	}
	candidateCache.entries[key] = e
	candidateCache.order = append(candidateCache.order, key)
}
