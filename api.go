package transfusion

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/cascade"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/eval"
	"github.com/fusedmindlab/transfusion/internal/experiments"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/report"
	"github.com/fusedmindlab/transfusion/internal/tensor"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Sanity caps on RunSpec extents: large enough for any workload the model
// covers (the paper evaluates up to 1M tokens), small enough to reject
// nonsense before it allocates or loops for hours.
const (
	// MaxSeqLen bounds RunSpec.SeqLen.
	MaxSeqLen = 1 << 24
	// MaxBatch bounds RunSpec.Batch.
	MaxBatch = 1 << 16
)

// RunSpec selects one evaluation.
type RunSpec struct {
	// Arch is an architecture preset name: "cloud", "edge", "edge32",
	// "edge64".
	Arch string
	// Model is a workload name: "bert", "trxl", "t5", "xlm", "llama3".
	Model string
	// SeqLen is the sequence length (e.g. 65536). Must be divisible by the
	// tiling factors the search considers; powers of two are safe.
	SeqLen int
	// System selects the modelled dataflow: "unfused", "flat", "fusemax",
	// "fusemax+layerfuse", "transfusion".
	System string
	// Batch overrides the batch size (default 64, the paper's setting).
	Batch int
	// SearchBudget overrides TileSeek's rollout budget (default 128;
	// only meaningful for the "transfusion" system).
	SearchBudget int
	// Causal selects decoder-style masked attention (each query attends
	// only to itself and earlier positions). The paper's evaluation uses
	// the bidirectional formulation; this is the decoder extension.
	Causal bool
	// HeuristicOnly skips the tile search entirely and evaluates
	// search-backed systems (TransFusion) on the static heuristic tile; the
	// result reports Degraded with a DegradedReason. It is the bottom tier
	// of transfusiond's overload degradation ladder: the heuristic tile is
	// always a valid configuration, so a saturated server can still answer
	// cheaply instead of shedding. Baselines that never search are
	// unaffected. The flag changes the result, so it is part of
	// CanonicalKey: degraded results can never overwrite or serve for
	// full-fidelity cache entries.
	HeuristicOnly bool
	// ArchFile, when set, loads the architecture from a JSON description
	// instead of a preset (see internal/arch's schema); Arch is ignored.
	ArchFile string
	// CustomModel, when non-nil, replaces the zoo model named by Model.
	CustomModel *CustomModel
	// SearchTimeout, when positive, soft-bounds TileSeek's wall-clock time
	// (only meaningful for the "transfusion" system). When it expires the
	// evaluation falls back to the heuristic tile and the result reports
	// Degraded with a DegradedReason instead of failing. Cancellation of
	// the caller's context is unaffected: it still returns ErrCanceled.
	SearchTimeout time.Duration
	// Progress, when set, receives typed progress events (RolloutDoneEvent,
	// PhaseStartEvent/PhaseEndEvent, EnumerationProgressEvent,
	// DegradedEvent) synchronously from the evaluating goroutine. It must be
	// fast and must not block; leave nil for zero overhead.
	Progress ProgressFunc
	// Deprecated: ignored; evaluation is serial.
	Parallelism int
	// WarmHint, when non-nil, warm-starts the searches from a previously
	// winning plan — typically the stored result for the nearest sequence
	// length of the same spec family (see internal/store's Nearest).
	// TileSeek pre-expands and pre-visits the hinted tile so its evaluation
	// becomes the incumbent and primes the objective memo; DPipe evaluates
	// the hinted (order, bipartition) first and uses its makespan to abort
	// provably-worse candidate sweeps early. The hint never changes which
	// plan wins a search it is part of: a warm result is deterministic given
	// the hint and never worse than the hint's objective, so it is a
	// full-fidelity answer and is deliberately excluded from CanonicalKey.
	// An invalid or foreign hint is ignored; nil is exactly the cold search.
	WarmHint *PlanSummary
}

// LayerPlan is one sub-layer's winning DPipe schedule in plain serialisable
// form: the phase order, the first-subgraph of the winning bipartition
// (empty when the winner is unpartitioned), and the epoch count it was
// planned for.
type LayerPlan struct {
	Order  []string
	First  []string
	Epochs int64
}

// PlanSummary captures the winning search artifacts of a completed
// evaluation — the outer tile configuration and each sub-layer's winning
// DPipe schedule keyed by problem name ("qproj", "kvproj", "mha", "ln",
// "ffn"). It rides RunResult into the plan store and back out as
// RunSpec.WarmHint, which is how a near-miss request inherits the structure
// of its nearest stored neighbour.
type PlanSummary struct {
	TileB  int
	TileD  int
	TileP  int
	TileM0 int
	TileM1 int
	TileS  int
	Layers map[string]LayerPlan
}

// CustomModel describes a Transformer outside the five-entry zoo by its
// hyper-parameters; D is derived as Heads*HeadDim.
type CustomModel struct {
	Name       string
	Heads      int
	HeadDim    int
	FFNHidden  int
	Layers     int
	Activation string
}

// EnergyBreakdown is the per-component energy in picojoules — the Figure 13
// decomposition.
type EnergyBreakdown struct {
	DRAM    float64
	Buffer  float64
	RegFile float64
	PE      float64
}

// Total sums the components.
func (e EnergyBreakdown) Total() float64 { return e.DRAM + e.Buffer + e.RegFile + e.PE }

// RunResult is the outcome of one evaluation, with plain serialisable
// fields.
type RunResult struct {
	Arch   string
	Model  string
	System string
	SeqLen int
	Batch  int
	// Cycles is the modelled end-to-end latency in PE clock cycles.
	Cycles float64
	// Seconds is Cycles under the architecture's clock.
	Seconds float64
	// EnergyPJ is the modelled energy breakdown.
	EnergyPJ EnergyBreakdown
	// Utilization1D / Utilization2D are the PE arrays' busy fractions.
	Utilization1D float64
	Utilization2D float64
	// LayerCycles attributes latency to the sub-layers ("QKV", "MHA",
	// "Add&LayerNorm", "FFN").
	LayerCycles map[string]float64
	// Tile describes the chosen outer tile.
	Tile string
	// DRAMBytes is the total off-chip traffic.
	DRAMBytes float64
	// TileSearchEvals counts TileSeek objective evaluations (zero for the
	// baselines' static heuristic).
	TileSearchEvals int
	// Degraded reports that the tile search did not complete cleanly and the
	// evaluation fell back to the static heuristic tile (see
	// DegradedReason). The result is still valid, but may be pessimistic
	// relative to a completed search.
	Degraded bool
	// DegradedReason says why, when Degraded is set.
	DegradedReason string
	// Plan is the winning tile and per-sub-layer schedule summary. It is
	// what a warm-started search for a neighbouring spec reuses as
	// RunSpec.WarmHint, and what the plan store persists alongside the
	// metrics.
	Plan *PlanSummary
}

// ArchNames lists the architecture presets.
func ArchNames() []string {
	names := make([]string, 0, 4)
	for n := range arch.Presets() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelNames lists the workload models.
func ModelNames() []string {
	out := make([]string, 0, 5)
	for _, m := range model.All() {
		out = append(out, m.Name)
	}
	return out
}

// SystemNames lists the modelled systems in comparison order.
func SystemNames() []string {
	out := make([]string, 0, 5)
	for _, s := range pipeline.AllSystems() {
		out = append(out, s.Name)
	}
	return out
}

// validate checks the spec's numeric constraints up front, before any
// resolution work, so adversarial or fat-fingered inputs fail fast with an
// error matching ErrInvalidSpec instead of surfacing from deep inside the
// tiling or search machinery.
func (s RunSpec) validate() error {
	switch {
	case s.SeqLen <= 0:
		return faults.Invalidf("transfusion: non-positive sequence length %d", s.SeqLen)
	case s.SeqLen > MaxSeqLen:
		return faults.Invalidf("transfusion: sequence length %d exceeds maximum %d", s.SeqLen, MaxSeqLen)
	case s.Batch < 0:
		return faults.Invalidf("transfusion: negative batch %d (0 selects the default of %d)", s.Batch, model.EvalBatch)
	case s.Batch > MaxBatch:
		return faults.Invalidf("transfusion: batch %d exceeds maximum %d", s.Batch, MaxBatch)
	case s.SearchBudget < 0:
		return faults.Invalidf("transfusion: negative search budget %d (0 selects the default)", s.SearchBudget)
	default:
		return nil
	}
}

// CanonicalKey returns a deterministic string identifying the evaluation the
// spec selects, for use as a cache or coalescing key: two specs with the same
// key produce bit-identical RunResults. String fields are %q-quoted so the
// key is injective — field values containing the separator characters cannot
// collide with a different spec. Defaulted fields are normalised (Batch 0
// becomes the evaluation default; SearchBudget <= 0 the default rollout
// budget, matching resolve, which only overrides the budget when positive),
// so a spec that spells the default explicitly keys identically to one that
// leaves it zero. Progress and the ignored Parallelism are deliberately
// excluded: neither changes the result. WarmHint is excluded too: a
// warm-started result is a full-fidelity answer for the spec — deterministic
// given the hint and never worse than the hint's objective — so it may be
// cached and persisted under the spec's key.
func (s RunSpec) CanonicalKey() string {
	batch := s.Batch
	if batch == 0 {
		batch = model.EvalBatch
	}
	budget := s.SearchBudget
	if budget <= 0 {
		budget = pipeline.DefaultOptions().TileSeekIterations
	}
	var b strings.Builder
	fmt.Fprintf(&b, "arch=%q|archfile=%q|model=%q|seq=%d|sys=%q|batch=%d|budget=%d|causal=%t|timeout=%s|heur=%t",
		s.Arch, s.ArchFile, s.Model, s.SeqLen, s.System, batch, budget, s.Causal, s.SearchTimeout, s.HeuristicOnly)
	if cm := s.CustomModel; cm != nil {
		fmt.Fprintf(&b, "|custom=%q/%d/%d/%d/%d/%q",
			cm.Name, cm.Heads, cm.HeadDim, cm.FFNHidden, cm.Layers, cm.Activation)
	}
	return b.String()
}

// ParseCanonicalKey inverts CanonicalKey: it reconstructs the RunSpec a key
// renders from, with defaulted fields coming back normalised (Batch and
// SearchBudget explicit) and the keyless fields (Progress, Parallelism,
// WarmHint) zero. The boolean reports whether the key
// parses; every true return round-trips, spec.CanonicalKey() == key. The
// plan store uses it to group stored plans into warm-start families — the
// same evaluation at different sequence lengths.
func ParseCanonicalKey(key string) (RunSpec, bool) {
	p := &keyParser{s: key, ok: true}
	var spec RunSpec
	spec.Arch = p.quoted("arch=")
	spec.ArchFile = p.quoted("|archfile=")
	spec.Model = p.quoted("|model=")
	spec.SeqLen = p.num("|seq=")
	spec.System = p.quoted("|sys=")
	spec.Batch = p.num("|batch=")
	spec.SearchBudget = p.num("|budget=")
	spec.Causal = p.boolean("|causal=")
	spec.SearchTimeout = p.duration("|timeout=")
	spec.HeuristicOnly = p.boolean("|heur=")
	if p.ok && strings.HasPrefix(p.s, "|custom=") {
		cm := &CustomModel{}
		cm.Name = p.quoted("|custom=")
		cm.Heads = p.num("/")
		cm.HeadDim = p.num("/")
		cm.FFNHidden = p.num("/")
		cm.Layers = p.num("/")
		cm.Activation = p.quoted("/")
		spec.CustomModel = cm
	}
	if !p.ok || p.s != "" {
		return RunSpec{}, false
	}
	// The round trip is the correctness proof: a parse that does not
	// re-render byte-identically (a malformed quote that happened to
	// unquote, an un-normalised duration spelling) is rejected rather than
	// trusted.
	if spec.CanonicalKey() != key {
		return RunSpec{}, false
	}
	return spec, true
}

// keyParser consumes a canonical key left to right; any failure sticks.
type keyParser struct {
	s  string
	ok bool
}

func (p *keyParser) prefix(label string) bool {
	if !p.ok || !strings.HasPrefix(p.s, label) {
		p.ok = false
		return false
	}
	p.s = p.s[len(label):]
	return true
}

// quoted consumes label followed by a %q-quoted Go string: scan to the
// closing unescaped quote, then let strconv undo the escaping.
func (p *keyParser) quoted(label string) string {
	if !p.prefix(label) {
		return ""
	}
	if len(p.s) == 0 || p.s[0] != '"' {
		p.ok = false
		return ""
	}
	i := 1
	for i < len(p.s) {
		if p.s[i] == '\\' {
			i += 2
			continue
		}
		if p.s[i] == '"' {
			break
		}
		i++
	}
	if i >= len(p.s) {
		p.ok = false
		return ""
	}
	v, err := strconv.Unquote(p.s[:i+1])
	if err != nil {
		p.ok = false
		return ""
	}
	p.s = p.s[i+1:]
	return v
}

func (p *keyParser) num(label string) int {
	if !p.prefix(label) {
		return 0
	}
	i := 0
	if i < len(p.s) && p.s[i] == '-' {
		i++
	}
	for i < len(p.s) && p.s[i] >= '0' && p.s[i] <= '9' {
		i++
	}
	v, err := strconv.Atoi(p.s[:i])
	if err != nil {
		p.ok = false
		return 0
	}
	p.s = p.s[i:]
	return v
}

func (p *keyParser) boolean(label string) bool {
	if !p.prefix(label) {
		return false
	}
	switch {
	case strings.HasPrefix(p.s, "true"):
		p.s = p.s[4:]
		return true
	case strings.HasPrefix(p.s, "false"):
		p.s = p.s[5:]
		return false
	default:
		p.ok = false
		return false
	}
}

func (p *keyParser) duration(label string) time.Duration {
	if !p.prefix(label) {
		return 0
	}
	end := strings.IndexByte(p.s, '|')
	if end < 0 {
		end = len(p.s)
	}
	v, err := time.ParseDuration(p.s[:end])
	if err != nil {
		p.ok = false
		return 0
	}
	p.s = p.s[end:]
	return v
}

func (s RunSpec) resolve() (arch.Spec, model.Config, pipeline.System, pipeline.Options, int, error) {
	if err := s.validate(); err != nil {
		return arch.Spec{}, model.Config{}, pipeline.System{}, pipeline.Options{}, 0, err
	}
	var spec arch.Spec
	var err error
	if s.ArchFile != "" {
		spec, err = arch.FromJSONFile(s.ArchFile)
	} else {
		spec, err = arch.ByName(s.Arch)
	}
	if err != nil {
		return arch.Spec{}, model.Config{}, pipeline.System{}, pipeline.Options{}, 0, err
	}
	var m model.Config
	if cm := s.CustomModel; cm != nil {
		m, err = model.Custom(cm.Name, cm.Heads, cm.HeadDim, cm.FFNHidden, cm.Layers, cm.Activation)
	} else {
		m, err = model.ByName(s.Model)
	}
	if err != nil {
		return arch.Spec{}, model.Config{}, pipeline.System{}, pipeline.Options{}, 0, err
	}
	sys, err := pipeline.SystemByName(s.System)
	if err != nil {
		return arch.Spec{}, model.Config{}, pipeline.System{}, pipeline.Options{}, 0, err
	}
	batch := s.Batch
	if batch == 0 {
		batch = model.EvalBatch
	}
	opts := pipeline.DefaultOptions()
	if s.SearchBudget > 0 {
		opts.TileSeekIterations = s.SearchBudget
	}
	if s.SearchTimeout > 0 {
		opts.TileSeekTimeout = s.SearchTimeout
	}
	opts.Progress = s.Progress
	opts.SkipSearch = s.HeuristicOnly
	opts.WarmHint = s.WarmHint.toPipeline()
	return spec, m, sys, opts, batch, nil
}

// toPipeline converts the serialisable hint into the engine's form; nil in,
// nil out.
func (p *PlanSummary) toPipeline() *pipeline.WarmHint {
	if p == nil {
		return nil
	}
	h := &pipeline.WarmHint{
		Tile: tiling.Config{B: p.TileB, D: p.TileD, P: p.TileP, M0: p.TileM0, M1: p.TileM1, S: p.TileS},
	}
	if len(p.Layers) > 0 {
		h.Layers = make(map[string]pipeline.LayerPlan, len(p.Layers))
		for name, lp := range p.Layers {
			h.Layers[name] = pipeline.LayerPlan{Order: lp.Order, First: lp.First, Epochs: lp.Epochs}
		}
	}
	return h
}

func toRunResult(r pipeline.Result, batch int) RunResult {
	layers := make(map[string]float64, 4)
	for _, k := range pipeline.LayerKinds() {
		layers[k.String()] = r.LayerCycles[k]
	}
	var plan *PlanSummary
	if len(r.Plans) > 0 {
		plan = &PlanSummary{
			TileB: r.Tile.B, TileD: r.Tile.D, TileP: r.Tile.P,
			TileM0: r.Tile.M0, TileM1: r.Tile.M1, TileS: r.Tile.S,
			Layers: make(map[string]LayerPlan, len(r.Plans)),
		}
		for name, lp := range r.Plans {
			plan.Layers[name] = LayerPlan{Order: lp.Order, First: lp.First, Epochs: lp.Epochs}
		}
	}
	return RunResult{
		Arch:    r.Arch,
		Model:   r.Workload.Model.Name,
		System:  r.System,
		SeqLen:  r.Workload.SeqLen,
		Batch:   batch,
		Cycles:  r.TotalCycles,
		Seconds: r.Seconds,
		EnergyPJ: EnergyBreakdown{
			DRAM: r.Energy.DRAM, Buffer: r.Energy.Buffer,
			RegFile: r.Energy.Reg, PE: r.Energy.PE,
		},
		Utilization1D:   r.Utilization1D(),
		Utilization2D:   r.Utilization2D(),
		LayerCycles:     layers,
		Tile:            r.Tile.String(),
		DRAMBytes:       r.Traffic.DRAMBytes,
		TileSearchEvals: r.TileSearchEvals,
		Degraded:        r.Degraded,
		DegradedReason:  r.DegradedReason,
		Plan:            plan,
	}
}

// Run evaluates one system on one workload/architecture.
func Run(s RunSpec) (RunResult, error) {
	return RunContext(context.Background(), s)
}

// RunContext is Run under a context. Cancelling ctx aborts the tile search
// within one rollout and the schedule search within one candidate, returning
// an error matching ErrCanceled. RunContext never panics: an internal defect
// surfaces as a *InternalError carrying the stack trace.
func RunContext(ctx context.Context, s RunSpec) (res RunResult, err error) {
	defer faults.Recover(&err)
	spec, m, sys, opts, batch, err := s.resolve()
	if err != nil {
		return RunResult{}, err
	}
	w := pipeline.Workload{Model: m, SeqLen: s.SeqLen, Batch: batch, Causal: s.Causal}
	r, err := pipeline.EvaluateContext(ctx, w, spec, sys, opts)
	if err != nil {
		return RunResult{}, err
	}
	return toRunResult(r, batch), nil
}

// Compare evaluates all five systems on one workload/architecture, in the
// paper's comparison order (Unfused first — the common baseline).
func Compare(archName, modelName string, seqLen int) ([]RunResult, error) {
	return CompareContext(context.Background(), archName, modelName, seqLen)
}

// CompareContext is Compare under a context; cancellation aborts the
// in-flight evaluation and returns an error matching ErrCanceled.
func CompareContext(ctx context.Context, archName, modelName string, seqLen int) (out []RunResult, err error) {
	defer faults.Recover(&err)
	out = make([]RunResult, 0, 5)
	for _, name := range SystemNames() {
		r, err := RunContext(ctx, RunSpec{Arch: archName, Model: modelName, SeqLen: seqLen, System: name})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExperimentIDs lists the regenerable paper artifacts (tables, figures,
// headline aggregates, ablations).
func ExperimentIDs() []string {
	out := make([]string, 0, 16)
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// ExperimentDescription returns the one-line description of an experiment.
func ExperimentDescription(id string) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Description, nil
}

// RunExperiment regenerates one paper artifact and returns its rendered
// table. searchBudget tunes TileSeek's rollout count (0 = default); the
// figures involving TransFusion get slower but slightly better-tiled as it
// grows.
func RunExperiment(id string, searchBudget int) (string, error) {
	return RunExperimentContext(context.Background(), id, searchBudget)
}

// RunExperimentContext is RunExperiment under a context; cancellation aborts
// the in-flight evaluation and returns an error matching ErrCanceled.
func RunExperimentContext(ctx context.Context, id string, searchBudget int) (out string, err error) {
	defer faults.Recover(&err)
	table, err := runExperimentTable(ctx, id, searchBudget)
	if err != nil {
		return "", err
	}
	return table.Render(), nil
}

// RunExperimentCSV regenerates one paper artifact as CSV (header row plus
// one record per table row), for downstream plotting.
func RunExperimentCSV(id string, searchBudget int) (string, error) {
	return RunExperimentCSVContext(context.Background(), id, searchBudget)
}

// RunExperimentCSVContext is RunExperimentCSV under a context.
func RunExperimentCSVContext(ctx context.Context, id string, searchBudget int) (out string, err error) {
	defer faults.Recover(&err)
	table, err := runExperimentTable(ctx, id, searchBudget)
	if err != nil {
		return "", err
	}
	return table.CSV(), nil
}

func runExperimentTable(ctx context.Context, id string, searchBudget int) (*report.Table, error) {
	if searchBudget < 0 {
		return nil, faults.Invalidf("transfusion: negative search budget %d", searchBudget)
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	opts := pipeline.DefaultOptions()
	if searchBudget > 0 {
		opts.TileSeekIterations = searchBudget
	}
	return e.Run(experiments.NewRunnerContext(ctx, opts))
}

// VerifyCascades executes the functional layer end to end: one full
// Transformer layer (QKV -> streaming MHA -> Add&LayerNorm -> FFN) is run
// through the Einsum-cascade interpreter on deterministic random tensors
// and compared against naive reference implementations. It returns the
// maximum absolute deviation (which should be ~1e-12).
func VerifyCascades(seed uint64) (diff float64, err error) {
	defer faults.Recover(&err)
	const d, h, e, p, s, m0 = 8, 2, 4, 6, 10, 3
	input := tensor.Rand(seed+100, tensor.Dim{Name: "d", Size: d}, tensor.Dim{Name: "p", Size: p})
	w := cascade.RandLayerWeights(seed, d, h, e, e, s)
	got, err := cascade.RunLayer(input, w, m0, "gelu")
	if err != nil {
		return 0, err
	}
	// Reference composition.
	q := cascade.RefProject(input, w.WQ, "e")
	k := cascade.RefProject(input, w.WK, "e")
	v := cascade.RefProject(input, w.WV, "f")
	kM := renameDim(k, "p", "m")
	vM := renameDim(v, "p", "m")
	av := cascade.RefAttention(q, kM, vM)
	nr := cascade.RefAddLayerNorm(renameDim(q, "e", "f"), av)
	gelu := func(x float64) float64 { return einsum.GeLU([]float64{x}) }
	want := cascade.RefFFN(nr, w.WF1, w.BF1, w.WF2, w.BF2, gelu)
	return tensor.MaxAbsDiff(got, want), nil
}

// RunStreamingAttention executes Einsum Cascade 1 (the 1-pass streaming
// attention) on the given tensors via the interpreter and returns the
// output AV[h,f,p]; exposed so examples can drive the functional layer
// directly. q is [h,e,p]; k and v are [h,e,m] / [h,f,m]; m0 is the inner
// tile length and must divide m.
func RunStreamingAttention(q, k, v *tensor.Tensor, m0 int) (out *tensor.Tensor, err error) {
	defer faults.Recover(&err)
	m := k.MustSize("m")
	if m0 <= 0 || m%m0 != 0 {
		return nil, faults.Invalidf("transfusion: m0=%d does not divide m=%d", m0, m)
	}
	env := eval.Env{
		"Q":  q,
		"BK": k.SplitDim("m", "m1", "m0", m0),
		"BV": v.SplitDim("m", "m1", "m0", m0),
	}
	dims := map[string]int{
		"h": q.MustSize("h"), "e": q.MustSize("e"), "f": v.MustSize("f"),
		"p": q.MustSize("p"), "m1": m / m0, "m0": m0,
	}
	res, err := cascade.Attention().Run(env, dims)
	if err != nil {
		return nil, err
	}
	return res["AV"], nil
}

// ReferenceAttention computes naive full-softmax attention for comparison
// with RunStreamingAttention. q is [h,e,p]; k and v are [h,e,m] / [h,f,m].
func ReferenceAttention(q, k, v *tensor.Tensor) *tensor.Tensor {
	return cascade.RefAttention(q, k, v)
}

// RandTensor builds a deterministic pseudo-random tensor; dims alternate
// name/size pairs, e.g. RandTensor(1, "h", 2, "e", 4, "p", 8).
func RandTensor(seed uint64, dims ...interface{}) (out *tensor.Tensor, err error) {
	defer faults.Recover(&err)
	if len(dims)%2 != 0 {
		return nil, faults.Invalidf("transfusion: RandTensor needs name/size pairs")
	}
	td := make([]tensor.Dim, 0, len(dims)/2)
	for i := 0; i < len(dims); i += 2 {
		name, ok := dims[i].(string)
		if !ok {
			return nil, faults.Invalidf("transfusion: dim name %v is not a string", dims[i])
		}
		size, ok := dims[i+1].(int)
		if !ok {
			return nil, faults.Invalidf("transfusion: dim size %v is not an int", dims[i+1])
		}
		if size <= 0 {
			return nil, faults.Invalidf("transfusion: non-positive size %d for dim %q", size, name)
		}
		td = append(td, tensor.Dim{Name: name, Size: size})
	}
	return tensor.Rand(seed, td...), nil
}

// MaxAbsDiff compares two tensors elementwise (dimension-order
// insensitive).
func MaxAbsDiff(a, b *tensor.Tensor) float64 { return tensor.MaxAbsDiff(a, b) }

func renameDim(t *tensor.Tensor, from, to string) *tensor.Tensor {
	dims := t.Dims()
	for i := range dims {
		if dims[i].Name == from {
			dims[i].Name = to
		}
	}
	out := tensor.New(dims...)
	copy(out.Data(), t.Data())
	return out
}

// ScheduleTrace builds the DPipe schedule for one sub-layer of a workload
// ("qproj", "kvproj", "mha", "ln", "ffn") and renders it as an ASCII Gantt
// chart over the given number of explicit epochs, plus the schedule
// statistics. It is the introspection behind `transfusion -trace`.
func ScheduleTrace(archName, modelName string, seqLen int, layer string, epochs, width int) (out string, err error) {
	defer faults.Recover(&err)
	if seqLen <= 0 || seqLen > MaxSeqLen {
		return "", faults.Invalidf("transfusion: sequence length %d out of range (1..%d)", seqLen, MaxSeqLen)
	}
	spec, err := arch.ByName(archName)
	if err != nil {
		return "", err
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return "", err
	}
	w := pipeline.Workload{Model: m, SeqLen: seqLen, Batch: model.EvalBatch}
	tile, err := tiling.HeuristicTile(w, spec)
	if err != nil {
		return "", err
	}
	probs, err := pipeline.BuildProblems(w, spec, pipeline.TransFusion(), tile)
	if err != nil {
		return "", err
	}
	prob, ok := probs[layer]
	if !ok {
		return "", faults.Invalidf("transfusion: unknown sub-layer %q (have qproj, kvproj, mha, ln, ffn)", layer)
	}
	plan, err := dpipe.Plan(prob, spec, dpipe.DefaultOptions())
	if err != nil {
		return "", err
	}
	if epochs < 1 {
		epochs = 4
	}
	if int64(epochs) > prob.Epochs {
		epochs = int(prob.Epochs)
	}
	tr, err := dpipe.TraceSchedule(prob, spec, plan.Order, plan.Bipartition.First, epochs, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(tr.Gantt(width))
	busy2, busy1 := tr.BusyCycles()
	fmt.Fprintf(&b, "2D busy %.0f%%, 1D busy %.0f%% over %d explicit epochs; full-problem plan: %.4g cycles, %d candidate schedules\n",
		100*busy2/tr.Makespan, 100*busy1/tr.Makespan, epochs, plan.TotalCycles, plan.Candidates)
	return b.String(), nil
}

// RunCausalAttention executes the masked (decoder-style) streaming
// attention cascade: each query at global position qStart+i attends only to
// keys at positions <= qStart+i. Shapes follow RunStreamingAttention.
func RunCausalAttention(q, k, v *tensor.Tensor, m0, qStart int) (av *tensor.Tensor, err error) {
	defer faults.Recover(&err)
	m := k.MustSize("m")
	if m0 <= 0 || m%m0 != 0 {
		return nil, faults.Invalidf("transfusion: m0=%d does not divide m=%d", m0, m)
	}
	if qStart < 0 {
		return nil, faults.Invalidf("transfusion: negative qStart %d", qStart)
	}
	m1 := m / m0
	p := q.MustSize("p")
	env := eval.Env{
		"Q":    q,
		"BK":   k.SplitDim("m", "m1", "m0", m0),
		"BV":   v.SplitDim("m", "m1", "m0", m0),
		"MASK": cascade.CausalMask(m1, m0, p, qStart),
	}
	dims := map[string]int{
		"h": q.MustSize("h"), "e": q.MustSize("e"), "f": v.MustSize("f"),
		"p": p, "m1": m1, "m0": m0,
	}
	out, err := cascade.CausalAttention().Run(env, dims)
	if err != nil {
		return nil, err
	}
	return out["AV"], nil
}

// ReferenceCausalAttention is the naive masked reference for
// RunCausalAttention.
func ReferenceCausalAttention(q, k, v *tensor.Tensor, qStart int) *tensor.Tensor {
	return cascade.RefCausalAttention(q, k, v, qStart)
}

// StackSpec selects an encoder-decoder evaluation (§3.2's hybrid
// composition): an encoder stack over EncSeq source tokens, a causal
// decoder stack over DecSeq target tokens, and per-decoder-layer
// cross-attention over the encoder memory.
type StackSpec struct {
	Arch         string
	Model        string
	System       string
	EncSeq       int
	DecSeq       int
	Batch        int
	SearchBudget int
}

// StackResult aggregates the three stages of an encoder-decoder run.
type StackResult struct {
	Encoder      RunResult
	DecoderSelf  RunResult
	DecoderCross RunResult
	Cycles       float64
	Seconds      float64
	EnergyPJ     EnergyBreakdown
}

// RunEncoderDecoder evaluates a full encoder-decoder Transformer stack.
func RunEncoderDecoder(s StackSpec) (StackResult, error) {
	return RunEncoderDecoderContext(context.Background(), s)
}

// RunEncoderDecoderContext is RunEncoderDecoder under a context.
func RunEncoderDecoderContext(ctx context.Context, s StackSpec) (sr StackResult, err error) {
	defer faults.Recover(&err)
	if s.DecSeq <= 0 || s.DecSeq > MaxSeqLen {
		return StackResult{}, faults.Invalidf("transfusion: decoder sequence length %d out of range (1..%d)", s.DecSeq, MaxSeqLen)
	}
	spec, m, sys, opts, batch, err := RunSpec{
		Arch: s.Arch, Model: s.Model, System: s.System,
		SeqLen: s.EncSeq, Batch: s.Batch, SearchBudget: s.SearchBudget,
	}.resolve()
	if err != nil {
		return StackResult{}, err
	}
	w := pipeline.Workload{Model: m, Batch: batch}
	res, err := pipeline.EvaluateEncoderDecoderContext(ctx, w, s.EncSeq, s.DecSeq, spec, sys, opts)
	if err != nil {
		return StackResult{}, err
	}
	out := StackResult{
		Encoder:      toRunResult(res.Encoder, batch),
		DecoderSelf:  toRunResult(res.DecoderSelf, batch),
		DecoderCross: toRunResult(res.DecoderCross, batch),
		Cycles:       res.TotalCycles,
		Seconds:      res.Seconds,
	}
	out.EnergyPJ = EnergyBreakdown{
		DRAM:    res.Energy.DRAM,
		Buffer:  res.Energy.Buffer,
		RegFile: res.Energy.Reg,
		PE:      res.Energy.PE,
	}
	return out, nil
}

// Explain evaluates a run and renders its per-phase anatomy: each phase's
// instance count, compute cycles, DRAM bytes, rooflined time, and whether
// it is compute- or memory-bound — the roofline analysis behind
// `transfusion -explain`.
func Explain(s RunSpec) (out string, err error) {
	defer faults.Recover(&err)
	spec, m, sys, opts, batch, err := s.resolve()
	if err != nil {
		return "", err
	}
	w := pipeline.Workload{Model: m, SeqLen: s.SeqLen, Batch: batch, Causal: s.Causal}
	res, err := pipeline.Evaluate(w, spec, sys, opts)
	if err != nil {
		return "", err
	}
	tb := report.NewTable(
		fmt.Sprintf("%s / %s / %s @ %d tokens: per-phase anatomy (one layer's phases; x%d layers)",
			sys.Name, spec.Name, m.Name, s.SeqLen, m.Layers),
		"Phase", "Instances", "Compute cyc", "DRAM bytes", "Time cyc", "Bound", "Share")
	for _, ph := range res.Phases {
		bound := "compute"
		if ph.TimeCycles > ph.ComputeCycles {
			bound = "memory"
		}
		share := ph.TimeCycles * float64(ph.Instances) * float64(m.Layers) / res.TotalCycles
		tb.AddRow(ph.Name,
			fmt.Sprint(ph.Instances),
			report.Sci(ph.ComputeCycles),
			report.Sci(float64(ph.DRAMBytes)),
			report.Sci(ph.TimeCycles),
			bound,
			report.Pct(share))
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	fmt.Fprintf(&b, "total %.4g cycles (%.4g s), tile %s, 2D util %.0f%%, 1D util %.0f%%\n",
		res.TotalCycles, res.Seconds, res.Tile, res.Utilization2D()*100, res.Utilization1D()*100)
	return b.String(), nil
}
