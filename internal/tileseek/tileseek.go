// Package tileseek implements TileSeek, the paper's MCTS-based outer-tiling
// search (§5). Each node of the search tree fixes one more tiling factor
// along the dimensions [B, D, P, M0, M1, S]; a root-to-leaf path is a
// complete outer-tiling configuration. Selection uses the UCB1 criterion,
// candidate tilings are validated against the Table 2 buffer constraints
// before evaluation, leaves are scored by a caller-supplied objective (the
// performance model's latency or energy — the Timeloop/Accelergy stand-in),
// and rewards are backpropagated along the selected path.
//
// The package also provides random search and bounded exhaustive search
// over the same space, used by the paper-style ablation comparing search
// strategies at equal evaluation budgets.
package tileseek

import (
	"context"
	"fmt"
	"log/slog"
	"math"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Objective scores a complete, feasible tiling configuration; lower is
// better (e.g. modelled latency in cycles or energy in picojoules). The
// boolean reports whether the configuration could be evaluated.
type Objective func(c tiling.Config) (cost float64, ok bool)

// Space is the candidate set per tiling dimension. Dimensions are decided
// in the fixed order B, D, P, M0, M1, S.
type Space struct {
	Workload tiling.Workload
	Spec     arch.Spec
	Bs       []int
	Ds       []int
	Ps       []int
	M0s      []int
	M1s      []int
	Ss       []int
}

// DefaultSpace derives the search space the evaluation uses: divisors of
// the full extents, with the query tile and KV tile capped to keep the
// space commensurate with the paper's (fine-grained but finite).
func DefaultSpace(w tiling.Workload, spec arch.Spec) Space {
	return Space{
		Workload: w,
		Spec:     spec,
		Bs:       tiling.Divisors(w.Batch, 8),
		Ds:       tiling.Divisors(w.Model.D, 0),
		Ps:       tiling.Divisors(w.SeqLen, 0),
		M0s:      tiling.Divisors(w.SeqLen, 4096),
		M1s:      tiling.Divisors(w.SeqLen, 64),
		Ss:       tiling.Divisors(w.Model.S, 0),
	}
}

// levels returns the candidate lists in decision order.
func (s Space) levels() [][]int {
	return [][]int{s.Bs, s.Ds, s.Ps, s.M0s, s.M1s, s.Ss}
}

// minCompletion fills the undecided levels of a partial assignment with
// each level's smallest candidate. Because every Table 2 buffer formula is
// monotone in every tile extent, the minimal completion is a lower bound:
// if it does not fit the buffer, no completion of the partial assignment
// does, and the whole subtree can be pruned (§5.1, constraint validation).
func (s Space) minCompletion(partial []int) tiling.Config {
	levels := s.levels()
	full := make([]int, len(levels))
	for i := range full {
		if i < len(partial) {
			full[i] = partial[i]
		} else {
			full[i] = levels[i][0]
		}
	}
	return assemble(full)
}

// partialFeasible reports whether some completion of the partial assignment
// can satisfy the buffer constraint (via the minimal-completion lower
// bound). Divisibility constraints are only enforced for decided levels —
// the minimal candidates are always divisors, so they never reject a
// partial spuriously.
func (s Space) partialFeasible(partial []int) bool {
	return tiling.Feasible(s.minCompletion(partial), s.Workload, s.Spec)
}

// assemble builds a Config from one choice per level.
func assemble(choices []int) tiling.Config {
	return tiling.Config{B: choices[0], D: choices[1], P: choices[2], M0: choices[3], M1: choices[4], S: choices[5]}
}

// Validate checks the space is non-empty in every dimension.
func (s Space) Validate() error {
	for i, l := range s.levels() {
		if len(l) == 0 {
			return fmt.Errorf("tileseek: empty candidate list at level %d", i)
		}
	}
	return s.Workload.Validate()
}

// Size returns the total number of complete configurations in the space.
func (s Space) Size() int64 {
	n := int64(1)
	for _, l := range s.levels() {
		n *= int64(len(l))
	}
	return n
}

// Result is the outcome of a search.
type Result struct {
	// Best is the best feasible configuration found.
	Best tiling.Config
	// BestCost is its objective value.
	BestCost float64
	// Evaluated counts objective evaluations (feasible candidates).
	Evaluated int
	// Pruned counts candidates rejected by the buffer constraint before
	// evaluation.
	Pruned int
	// Found reports whether any feasible configuration was found.
	Found bool
}

// rng is a deterministic xorshift PRNG for reproducible searches.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// ucbC is the UCB1 exploration constant.
const ucbC = 1.4

// node is one MCTS tree node: a partial configuration through `level`
// decided levels.
type node struct {
	level    int // number of decided levels
	choice   int // candidate index chosen at level-1 (undefined for root)
	parent   *node
	children []*node
	visits   int
	reward   float64
	dead     bool // subtree pruned by the buffer-constraint lower bound
}

func (n *node) ucb(total int) float64 {
	if n.dead {
		return math.Inf(-1)
	}
	if n.visits == 0 {
		return math.Inf(1)
	}
	return n.reward/float64(n.visits) + ucbC*math.Sqrt(math.Log(float64(total))/float64(n.visits))
}

// Options configures a search beyond the space and objective. The zero
// value selects a 1-iteration search with the default seed and no
// observability hooks.
type Options struct {
	// Iterations is the rollout budget (<= 0 selects 1).
	Iterations int
	// Seed seeds the deterministic PRNG (0 selects the fixed default).
	Seed uint64
	// Deprecated: ignored; evaluation is serial.
	Parallelism int
	// Progress, when non-nil, receives an obs.RolloutDone event after every
	// rollout. Leave nil to pay nothing: the event is neither constructed
	// nor boxed when unset.
	Progress obs.ProgressFunc
	// Hint, when non-nil, warm-starts the search from a previously winning
	// configuration (typically the stored result for the nearest sequence
	// length): the MCTS path to the hint is pre-expanded and pre-visited, so
	// its evaluation becomes the incumbent best — a warm search can never
	// return a worse objective than the hint's — and primes the objective
	// memo. A hint whose values do not appear in the space, or which fails
	// the buffer constraint, is ignored, leaving the search bit-identical to
	// the unhinted one.
	Hint *tiling.Config
}

// Search runs MCTS for the given number of iterations and returns the best
// feasible configuration. Deterministic for a fixed seed.
func Search(space Space, objective Objective, iterations int, seed uint64) (Result, error) {
	return SearchContext(context.Background(), space, objective, iterations, seed)
}

// SearchContext is Search under a context. Cancellation is checked before
// every rollout: a canceled search stops within one rollout and returns the
// partial Result accumulated so far (Found reports whether it holds a usable
// best) together with an error matching faults.ErrCanceled. A search that
// completes its budget without finding any feasible configuration returns an
// error matching faults.ErrInfeasible — an expected outcome callers degrade
// around, not a crash.
//
// The search calls the objective from the caller's goroutine only, and at
// most once per configuration: repeat configurations are answered from a
// memo, so the objective must be pure.
func SearchContext(ctx context.Context, space Space, objective Objective, iterations int, seed uint64) (Result, error) {
	return SearchWithOptions(ctx, space, objective, Options{Iterations: iterations, Seed: seed})
}

// walker bundles the state the MCTS loop threads through one rollout:
// the space, its candidate lists, the PRNG, and the tree root.
type walker struct {
	space  Space
	levels [][]int
	r      *rng
	root   *node
}

// step runs one iteration's selection, expansion, and rollout: it returns
// the node to backpropagate from, the completed configuration, how many
// candidates the buffer-constraint lower bound pruned during expansion, and
// whether the configuration passed final validation.
func (w *walker) step() (cur *node, cfg tiling.Config, pruned int, feasible bool) {
	// Selection: descend by UCB1 until a node with unexpanded children or a
	// leaf. Subtrees whose minimal completion already exceeds the buffer are
	// marked dead at expansion time and never selected.
	cur = w.root
	values := make([]int, 0, len(w.levels))
	for cur.level < len(w.levels) {
		cands := w.levels[cur.level]
		if len(cur.children) < len(cands) {
			// Expansion: add the next unexpanded child, pruning dead
			// subtrees eagerly. Children are expanded from the largest
			// candidate down — large tiles amortise weight and K/V
			// re-reads best, so they deserve the earliest visits, and
			// the ones that cannot fit are pruned by the lower bound
			// before costing an evaluation.
			idx := len(cands) - 1 - len(cur.children)
			child := &node{level: cur.level + 1, choice: idx, parent: cur}
			if !w.space.partialFeasible(append(values, cands[idx])) {
				child.dead = true
				pruned++
			}
			cur.children = append(cur.children, child)
			if child.dead {
				continue // try the next candidate within this iteration
			}
			cur = child
			values = append(values, cands[idx])
			break
		}
		best := (*node)(nil)
		bestScore := math.Inf(-1)
		for _, ch := range cur.children {
			if s := ch.ucb(cur.visits + 1); s > bestScore {
				bestScore = s
				best = ch
			}
		}
		if best == nil || best.dead {
			break // every child pruned: roll out from here
		}
		cur = best
		values = append(values, w.levels[cur.level-1][cur.choice])
	}

	// Rollout: complete the remaining levels randomly among values that
	// keep the minimal completion feasible (constraint-guided sampling,
	// §5.1); fall back to uniform if no candidate passes the bound.
	full := append([]int(nil), values...)
	for len(full) < len(w.levels) {
		cands := w.levels[len(full)]
		var live []int
		for _, v := range cands {
			if w.space.partialFeasible(append(full, v)) {
				live = append(live, v)
			}
		}
		if len(live) == 0 {
			live = cands
		}
		full = append(full, live[w.r.intn(len(live))])
	}
	cfg = assemble(full)

	// Final constraint validation: infeasible tiles earn zero reward and are
	// never passed to the expensive evaluation.
	return cur, cfg, pruned, tiling.Feasible(cfg, w.space.Workload, w.space.Spec)
}

// backprop adds one visit carrying the given reward to every node from n up
// to the root.
func backprop(n *node, reward float64) {
	for ; n != nil; n = n.parent {
		n.visits++
		n.reward += reward
	}
}

// warmSeed pre-expands and pre-visits the MCTS path to a hinted
// configuration before the first rollout: children along the path are
// created in exactly the expansion order the serial loop uses (largest
// candidate first, dead-marking infeasible siblings via the same lower
// bound), the hint is evaluated through consume — priming the objective
// memo — and its reward is backpropagated from the leaf. The hint's cost
// thereby becomes the incumbent Result.Best before any rollout, which is
// what makes a warm search never worse than its hint. A hint outside the
// space or failing the buffer constraint is rejected before touching the
// tree, leaving the search identical to a cold one. Reports success on the
// tileseek.warm_seeds counter.
func warmSeed(w *walker, hint tiling.Config, consume func(tiling.Config) (float64, bool), res *Result, scale *float64, warmC, evaluatedC, prunedC *obs.Counter) bool {
	choices := []int{hint.B, hint.D, hint.P, hint.M0, hint.M1, hint.S}
	idxs := make([]int, len(w.levels))
	for l, cands := range w.levels {
		idxs[l] = -1
		for i, v := range cands {
			if v == choices[l] {
				idxs[l] = i
				break
			}
		}
		if idxs[l] < 0 {
			return false
		}
	}
	if !tiling.Feasible(hint, w.space.Workload, w.space.Spec) {
		return false
	}
	cur := w.root
	values := make([]int, 0, len(w.levels))
	for cur.level < len(w.levels) {
		cands := w.levels[cur.level]
		hi := idxs[cur.level]
		// The hinted child is created once the children list spans index hi
		// in expansion order (idx = len(cands)-1-position, so position
		// len(cands)-1-hi); expanding any further would deviate from the
		// prefix invariant the serial loop's expansion relies on.
		for len(cur.children) < len(cands)-hi {
			idx := len(cands) - 1 - len(cur.children)
			child := &node{level: cur.level + 1, choice: idx, parent: cur}
			if !w.space.partialFeasible(append(values, cands[idx])) {
				child.dead = true
				res.Pruned++
				prunedC.Inc()
			}
			cur.children = append(cur.children, child)
		}
		var next *node
		for _, ch := range cur.children {
			if ch.choice == hi {
				next = ch
				break
			}
		}
		if next == nil || next.dead {
			// Unreachable while the buffer formulas stay monotone (a feasible
			// full hint implies every prefix's minimal completion fits), but a
			// dead hint child must not be visited: bail and let the search run
			// from the partially expanded tree, which is still a valid state.
			return false
		}
		values = append(values, cands[hi])
		cur = next
	}
	cost, ok := consume(hint)
	if !ok || cost <= 0 {
		return false
	}
	res.Evaluated++
	evaluatedC.Inc()
	if math.IsNaN(*scale) {
		*scale = cost
	}
	if cost < res.BestCost {
		res.BestCost = cost
		res.Best = hint
		res.Found = true
	}
	backprop(cur, *scale/cost)
	warmC.Inc()
	return true
}

// SearchWithOptions is SearchContext with explicit Options, the full-fidelity
// entry point.
//
// Objective memo: every configuration the search consumes — the hint's and
// each feasible rollout's — goes through one map keyed by tiling.Config, so
// the objective runs once per distinct configuration. Result.Evaluated
// counts consumed configurations, memo hits included, which keeps it
// independent of the memo.
//
// Observability: a registry attached to ctx (obs.WithMetrics) accumulates
// tileseek.searches, tileseek.rollouts, tileseek.evaluated, tileseek.pruned,
// tileseek.cache_hits and tileseek.cache_misses (hits + misses = evaluated;
// misses are the objective calls actually run); a logger attached to ctx
// (obs.WithLogger) gets debug lines at search start and end; opts.Progress
// streams one event per rollout. With none of the three configured the
// rollout loop allocates nothing it did not already allocate. A request
// span attached to ctx (obs.ContextWithSpan) gains one "tileseek.search"
// child covering the whole search, annotated with the iteration budget and
// the evaluated/pruned/found outcome.
func SearchWithOptions(ctx context.Context, space Space, objective Objective, opts Options) (Result, error) {
	ctx, sp := obs.StartSpan(ctx, "tileseek.search")
	res, err := searchWithOptions(ctx, space, objective, opts)
	if sp != nil {
		sp.SetAttrInt("iterations", int64(opts.Iterations))
		sp.SetAttrInt("evaluated", int64(res.Evaluated))
		sp.SetAttrInt("pruned", int64(res.Pruned))
		sp.SetAttrBool("found", res.Found)
		if opts.Hint != nil {
			sp.SetAttrBool("warm", true)
		}
		sp.EndErr(err)
	}
	return res, err
}

// searchWithOptions is SearchWithOptions' body; see there for the contract.
func searchWithOptions(ctx context.Context, space Space, objective Objective, opts Options) (Result, error) {
	if err := space.Validate(); err != nil {
		return Result{}, err
	}
	iterations := opts.Iterations
	if iterations <= 0 {
		iterations = 1
	}

	// Instruments are hoisted out of the rollout loop; on an unset registry
	// each is nil and its increments are single predicted branches.
	reg := obs.MetricsFrom(ctx)
	rolloutsC := reg.Counter("tileseek.rollouts")
	evaluatedC := reg.Counter("tileseek.evaluated")
	prunedC := reg.Counter("tileseek.pruned")
	hitsC := reg.Counter("tileseek.cache_hits")
	missesC := reg.Counter("tileseek.cache_misses")
	reg.Counter("tileseek.searches").Inc()
	lg := obs.LoggerFrom(ctx)
	if lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("tileseek: search start",
			"space", space.Size(), "iterations", iterations, "seed", opts.Seed)
	}
	res := Result{BestCost: math.Inf(1)}
	// scale normalises rewards: the first feasible cost maps to reward 1.
	scale := math.NaN()

	w := &walker{space: space, levels: space.levels(), r: newRNG(opts.Seed), root: &node{}}

	// consume resolves one feasible configuration to its objective value
	// through the memo (see SearchWithOptions).
	type memoEntry struct {
		cost float64
		ok   bool
	}
	memo := make(map[tiling.Config]memoEntry)
	consume := func(cfg tiling.Config) (float64, bool) {
		if e, hit := memo[cfg]; hit {
			hitsC.Inc()
			return e.cost, e.ok
		}
		missesC.Inc()
		cost, ok := objective(cfg)
		memo[cfg] = memoEntry{cost: cost, ok: ok}
		return cost, ok
	}

	if opts.Hint != nil {
		warmSeed(w, *opts.Hint, consume, &res, &scale, reg.Counter("tileseek.warm_seeds"), evaluatedC, prunedC)
	}

	// Fault-injection site, struck once per rollout. Unconfigured (the
	// production default) the hoisted lookup is nil and each Strike is a
	// single predicted branch. An injected error or cancel aborts
	// the search exactly as a real mid-search failure would — callers see the
	// partial Result plus the error, and the pipeline degrades around it.
	chaosSite := chaos.SiteFrom(ctx, chaos.SiteTileseekRollout)

	for it := 0; it < iterations; it++ {
		if ctx.Err() != nil {
			return res, faults.Canceled(ctx)
		}
		if err := chaosSite.Strike(ctx); err != nil {
			return res, err
		}
		rolloutsC.Inc()
		cur, cfg, prunedN, feasible := w.step()
		res.Pruned += prunedN
		prunedC.Add(int64(prunedN))

		reward := 0.0
		if feasible {
			cost, ok := consume(cfg)
			if ok && cost > 0 {
				res.Evaluated++
				evaluatedC.Inc()
				if math.IsNaN(scale) {
					scale = cost
				}
				reward = scale / cost
				if cost < res.BestCost {
					res.BestCost = cost
					res.Best = cfg
					res.Found = true
				}
			}
		} else {
			res.Pruned++
			prunedC.Inc()
		}

		backprop(cur, reward)

		// The nil check must stay inline: constructing the event only inside
		// the branch keeps the unset path free of interface boxing.
		if opts.Progress != nil {
			opts.Progress(obs.RolloutDone{
				Iteration: it + 1,
				Budget:    iterations,
				BestCost:  res.BestCost,
				Found:     res.Found,
				Visits:    w.root.visits,
			})
		}
	}
	if lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("tileseek: search done",
			"found", res.Found, "best", res.Best.String(), "cost", res.BestCost,
			"evaluated", res.Evaluated, "pruned", res.Pruned)
	}
	if !res.Found {
		return res, faults.Infeasiblef("tileseek: no feasible configuration found in %d iterations", iterations)
	}
	return res, nil
}
