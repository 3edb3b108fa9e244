package pipeline

import (
	"fmt"

	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// LayerKind indexes the four Transformer sub-layers for breakdowns.
type LayerKind int

const (
	LayerQKV LayerKind = iota
	LayerMHA
	LayerNorm
	LayerFFN
	numLayerKinds
)

// String names the sub-layer.
func (k LayerKind) String() string {
	switch k {
	case LayerQKV:
		return "QKV"
	case LayerMHA:
		return "MHA"
	case LayerNorm:
		return "Add&LayerNorm"
	case LayerFFN:
		return "FFN"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerKinds lists the sub-layers in execution order.
func LayerKinds() []LayerKind {
	return []LayerKind{LayerQKV, LayerMHA, LayerNorm, LayerFFN}
}

// Phase is one rooflined execution phase: a group of scheduled Einsums plus
// its DRAM boundary traffic, repeated Instances times.
type Phase struct {
	// Name identifies the phase in traces ("kvproj", "mha", "layer", ...).
	Name string
	// ComputeCycles is the scheduled compute makespan per instance.
	ComputeCycles float64
	// DRAMBytes is the off-chip traffic per instance.
	DRAMBytes int64
	// Instances is the repeat count (batch elements x tiles x layers).
	Instances int64
	// Busy1D and Busy2D are per-instance busy cycles per array.
	Busy1D float64
	Busy2D float64
	// OnChip is the per-instance on-chip traffic and op counts.
	OnChip perf.Traffic
	// ComputeByLayer attributes the per-instance compute cycles to
	// sub-layers (used for the Figure 11 contribution breakdown).
	ComputeByLayer [numLayerKinds]float64
	// TimeCycles is the rooflined per-instance latency (max of compute and
	// DRAM streaming), filled in by the engine.
	TimeCycles float64
}

// Result is a complete system evaluation on one workload/architecture.
type Result struct {
	// System and Arch identify the evaluation.
	System string
	Arch   string
	// Workload echoes the evaluated workload.
	Workload Workload
	// Tile is the outer tile used.
	Tile tiling.Config
	// TotalCycles is the end-to-end modelled latency in cycles.
	TotalCycles float64
	// Seconds is TotalCycles under the architecture clock.
	Seconds float64
	// LayerCycles attributes total latency to the four sub-layers.
	LayerCycles [numLayerKinds]float64
	// Traffic aggregates all access counts.
	Traffic perf.Traffic
	// Energy is the priced traffic.
	Energy perf.Energy
	// Busy1D / Busy2D are total busy cycles per PE array.
	Busy1D float64
	Busy2D float64
	// Phases are the constituent phases (one layer's worth; all layers are
	// identical so the engine stores the per-layer phase list).
	Phases []Phase
	// TileSearchEvals counts objective evaluations spent by TileSeek (zero
	// for heuristic tiling).
	TileSearchEvals int
	// Degraded reports that the tile search did not complete cleanly (soft
	// timeout, enumeration budget, or no feasible configuration) and the
	// evaluation fell back to the static heuristic tile. The result is still
	// valid — it models the system under the fallback tile — but may be
	// pessimistic relative to a completed search.
	Degraded bool
	// DegradedReason says why, when Degraded is set.
	DegradedReason string
	// Plans records each sub-layer problem's winning schedule under the
	// final tile, keyed by problem name ("qproj", "kvproj", "mha", "ln",
	// "ffn"). Together with Tile it is everything a warm-started search for
	// a neighbouring workload needs (Options.WarmHint).
	Plans map[string]LayerPlan
}

// LayerPlan is one sub-layer's winning schedule: the phase order, the
// first-subgraph of the winning bipartition (empty when unpartitioned), and
// the epoch count it was planned for.
type LayerPlan struct {
	Order  []string
	First  []string
	Epochs int64
}

// WarmHint seeds the searches from a previously winning plan for a
// neighbouring workload: Tile warm-starts TileSeek (on a reduced rollout
// budget, with the hint consumed as the incumbent), Layers warm-starts each
// sub-layer's DPipe enumeration (a hinted candidate the enumeration lacks
// joins it, so the winner is never worse than the hint). Invalid or
// foreign entries are ignored, a warm evaluation is deterministic given the
// hint, and its objective is never worse than the hint's own.
type WarmHint struct {
	Tile   tiling.Config
	Layers map[string]LayerPlan
}

// Utilization1D is the 1D array's busy fraction of total latency.
func (r Result) Utilization1D() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.Busy1D / r.TotalCycles
}

// Utilization2D is the 2D array's busy fraction of total latency.
func (r Result) Utilization2D() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.Busy2D / r.TotalCycles
}

// Speedup returns baseline.TotalCycles / r.TotalCycles.
func (r Result) Speedup(baseline Result) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return baseline.TotalCycles / r.TotalCycles
}

// EnergyRatio returns r's total energy relative to the baseline's.
func (r Result) EnergyRatio(baseline Result) float64 {
	if baseline.Energy.Total() == 0 {
		return 0
	}
	return r.Energy.Total() / baseline.Energy.Total()
}

// Contribution implements the paper's speedup-contribution attribution
// (Eqs. 47–48): for each sub-layer i, S_i = T_i^baseline / T_i^this, and the
// normalised contribution is S_i * T_i^baseline / sum_j S_j * T_j^baseline.
func (r Result) Contribution(baseline Result) [numLayerKinds]float64 {
	var s, weight [numLayerKinds]float64
	total := 0.0
	for i := 0; i < int(numLayerKinds); i++ {
		if r.LayerCycles[i] > 0 {
			s[i] = baseline.LayerCycles[i] / r.LayerCycles[i]
		}
		weight[i] = s[i] * baseline.LayerCycles[i]
		total += weight[i]
	}
	var out [numLayerKinds]float64
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] = weight[i] / total
	}
	return out
}
