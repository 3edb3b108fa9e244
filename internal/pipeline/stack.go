package pipeline

import (
	"context"
	"fmt"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Encoder-decoder composition (§3.2): TransFusion "composes and reorders
// Add & LayerNorm, FFN and MHA by their uniform input/output tensor shape,
// supporting different model structures such as encoders, decoders, or
// hybrid configurations". This file models a full encoder-decoder stack:
//
//	encoder:      Layers x [QKV -> MHA -> Add&LN -> FFN]         (bidirectional)
//	decoder self: Layers x [QKV -> masked MHA -> Add&LN -> FFN]  (causal)
//	decoder cross: Layers x [Q proj + memory K/V proj -> MHA -> Add&LN]
//
// The encoder and decoder-self parts reuse Evaluate directly; the
// cross-attention part is the same phase machinery with the key/value
// length decoupled from the query length (Workload.KVSeqLen).

// StackResult aggregates an encoder-decoder evaluation.
type StackResult struct {
	// Encoder is the bidirectional encoder stack's evaluation.
	Encoder Result
	// DecoderSelf is the masked self-attention decoder stack's evaluation.
	DecoderSelf Result
	// DecoderCross is the cross-attention stage's evaluation (per decoder
	// layer: query projection, memory K/V projection, MHA over the encoder
	// memory, Add & LayerNorm).
	DecoderCross Result
	// TotalCycles / Seconds / Energy aggregate the three parts.
	TotalCycles float64
	Seconds     float64
	Energy      perf.Energy
}

// EvaluateEncoderDecoder models a full encoder-decoder Transformer (equal
// encoder and decoder depth, per the model configuration) with encSeq
// source tokens and decSeq target tokens.
func EvaluateEncoderDecoder(w Workload, encSeq, decSeq int, spec arch.Spec, sys System, opts Options) (StackResult, error) {
	return EvaluateEncoderDecoderContext(context.Background(), w, encSeq, decSeq, spec, sys, opts)
}

// EvaluateEncoderDecoderContext is EvaluateEncoderDecoder under a context;
// cancellation aborts between and within the three constituent evaluations.
func EvaluateEncoderDecoderContext(ctx context.Context, w Workload, encSeq, decSeq int, spec arch.Spec, sys System, opts Options) (StackResult, error) {
	if encSeq <= 0 || decSeq <= 0 {
		return StackResult{}, faults.Invalidf("pipeline: non-positive stack lengths enc=%d dec=%d", encSeq, decSeq)
	}
	var out StackResult
	var err error

	encW := w
	encW.SeqLen = encSeq
	encW.Causal = false
	encW.KVSeqLen = 0
	out.Encoder, err = EvaluateContext(ctx, encW, spec, sys, opts)
	if err != nil {
		return StackResult{}, fmt.Errorf("pipeline: encoder stack: %w", err)
	}

	selfW := w
	selfW.SeqLen = decSeq
	selfW.Causal = true
	selfW.KVSeqLen = 0
	out.DecoderSelf, err = EvaluateContext(ctx, selfW, spec, sys, opts)
	if err != nil {
		return StackResult{}, fmt.Errorf("pipeline: decoder self-attention stack: %w", err)
	}

	crossW := w
	crossW.SeqLen = decSeq
	crossW.Causal = false
	crossW.KVSeqLen = encSeq
	out.DecoderCross, err = EvaluateCrossContext(ctx, crossW, spec, sys, opts)
	if err != nil {
		return StackResult{}, fmt.Errorf("pipeline: decoder cross-attention stage: %w", err)
	}

	out.TotalCycles = out.Encoder.TotalCycles + out.DecoderSelf.TotalCycles + out.DecoderCross.TotalCycles
	out.Seconds = perf.SecondsFromCycles(out.TotalCycles, spec)
	out.Energy.Add(out.Encoder.Energy)
	out.Energy.Add(out.DecoderSelf.Energy)
	out.Energy.Add(out.DecoderCross.Energy)
	return out, nil
}

// EvaluateCross models the cross-attention stage of a decoder stack: per
// decoder layer, the query projection over the decoder stream, the memory
// key/value projection over the encoder output, the MHA over the memory,
// and the Add & LayerNorm — no FFN (it belongs to the self-attention
// evaluation). The workload's KVSeqLen must carry the encoder length.
func EvaluateCross(w Workload, spec arch.Spec, sys System, opts Options) (Result, error) {
	return EvaluateCrossContext(context.Background(), w, spec, sys, opts)
}

// EvaluateCrossContext is EvaluateCross under a context; cancellation aborts
// the per-sub-layer schedule search within one candidate.
func EvaluateCrossContext(ctx context.Context, w Workload, spec arch.Spec, sys System, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if w.KVSeqLen == 0 {
		return Result{}, faults.Invalidf("pipeline: EvaluateCross requires KVSeqLen")
	}
	if ctx.Err() != nil {
		return Result{}, faults.Canceled(ctx)
	}
	tile, err := tiling.HeuristicTile(w, spec)
	if err != nil {
		return Result{}, err
	}

	m := w.Model
	dm := m.D
	bytes := int64(spec.BytesPerElement)
	bt := int64(tile.B)
	qInst := int64(w.Batch) * int64(w.SeqLen/tile.P)
	kvInst := int64(w.Batch) * tile.KVChunks(w)

	// The cross stage takes no warm hint: its schedules are planned cold.
	opts.WarmHint = nil
	ev := newEvaluator(w, spec, sys, opts)
	descs := ev.describe(tile)
	sched := func(l subLayer) (schedule, error) {
		s, _, err := ev.schedule(ctx, l, descs[l])
		return s, err
	}

	var phases []Phase

	// Memory K/V projection (once per KV chunk per decoder layer).
	kv, err := sched(subKVProj)
	if err != nil {
		return Result{}, err
	}
	kvPhase := Phase{
		Name:          "cross-kvproj",
		ComputeCycles: kv.cycles,
		DRAMBytes:     kv.kernelDRAM(bt, bytes),
		Instances:     kvInst,
		Busy1D:        kv.busy1D,
		Busy2D:        kv.busy2D,
		OnChip:        kv.onChip,
	}
	kvPhase.ComputeByLayer[LayerQKV] = kv.cycles
	phases = append(phases, kvPhase)

	// Query path: Q projection + MHA over memory + Add & LayerNorm.
	query := []subLayer{subQProj, subMHA, subLN}
	if sys.FuseLayer {
		var compute, busy1, busy2 float64
		var byLayer [numLayerKinds]float64
		var chip perf.Traffic
		for _, l := range query {
			s, err := sched(l)
			if err != nil {
				return Result{}, err
			}
			compute += s.cycles
			busy1 += s.busy1D
			busy2 += s.busy2D
			byLayer[subLayerKinds[l]] += s.cycles
			chip.Add(s.onChip)
		}
		dram := bytes * (int64(tile.P)*int64(dm) + // decoder stream read
			2*int64(w.KVLen())*int64(dm) + // memory K/V stream
			int64(dm)*int64(dm)/bt + // WQ
			int64(tile.P)*int64(dm)) // output write
		ph := Phase{
			Name:           "cross-layer",
			ComputeCycles:  compute,
			DRAMBytes:      dram,
			Instances:      qInst,
			Busy1D:         busy1,
			Busy2D:         busy2,
			OnChip:         chip,
			ComputeByLayer: byLayer,
		}
		phases = append(phases, ph)
	} else {
		for _, l := range query {
			s, err := sched(l)
			if err != nil {
				return Result{}, err
			}
			d := descs[l]
			var dram int64
			if l == subMHA && sys.FuseAttention {
				mhaP := tile.P
				if d.instOverride > 0 {
					mhaP = d.reads[0]
				}
				dram = bytes * (int64(mhaP)*int64(dm) + 2*int64(w.KVLen())*int64(dm) + int64(mhaP)*int64(dm))
			} else {
				dram = s.kernelDRAM(bt, bytes)
			}
			inst := qInst
			if d.instOverride > 0 {
				inst = d.instOverride
			}
			ph := Phase{
				Name:          "cross-" + subLayerNames[l],
				ComputeCycles: s.cycles,
				DRAMBytes:     dram,
				Instances:     inst,
				Busy1D:        s.busy1D,
				Busy2D:        s.busy2D,
				OnChip:        s.onChip,
			}
			ph.ComputeByLayer[subLayerKinds[l]] = s.cycles
			phases = append(phases, ph)
		}
	}

	// Roofline and accumulate across decoder layers.
	res := Result{System: sys.Name, Arch: spec.Name, Workload: w, Tile: tile}
	layers := int64(m.Layers)
	for i := range phases {
		ph := &phases[i]
		ph.TimeCycles = perf.Roofline(ph.ComputeCycles, ph.DRAMBytes, spec)
		scale := float64(ph.Instances * layers)
		res.TotalCycles += ph.TimeCycles * scale
		computeSum := 0.0
		for _, c := range ph.ComputeByLayer {
			computeSum += c
		}
		if computeSum > 0 {
			for k := 0; k < int(numLayerKinds); k++ {
				res.LayerCycles[k] += ph.TimeCycles * scale * ph.ComputeByLayer[k] / computeSum
			}
		}
		res.Busy1D += ph.Busy1D * scale
		res.Busy2D += ph.Busy2D * scale
		total := ph.OnChip.Scale(scale)
		total.DRAMBytes = float64(ph.DRAMBytes) * scale
		res.Traffic.Add(total)
	}
	res.Energy = res.Traffic.Energy(spec)
	res.Seconds = perf.SecondsFromCycles(res.TotalCycles, spec)
	res.Phases = phases
	return res, nil
}
