package dpipe

import (
	"fmt"
	"sort"
	"strings"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// TraceEntry is one scheduled op instance with its placement and timing.
type TraceEntry struct {
	Op    string
	Epoch int
	Array perf.ArrayKind
	Start float64
	End   float64
}

// Trace is a fully materialised schedule over a bounded number of explicit
// epochs, for visualisation and invariant checking. Unlike Result (which
// extrapolates to the full epoch count), a Trace records every instance's
// start and end exactly.
type Trace struct {
	Problem  string
	Epochs   int
	Entries  []TraceEntry
	Makespan float64
}

// TraceSchedule replays the Eq. 43–46 DP for the given candidate order and
// bipartition over `epochs` explicit epochs, recording every placement: the
// same compiled sweep Plan runs, with a placement recorder attached.
// A nil `first` uses epoch-major sequencing; otherwise the Figure 7(d)
// interleaving. fixedAssign pins arrays as in StaticPipelined.
func TraceSchedule(p *Problem, spec arch.Spec, order []string, first map[string]bool, epochs int, fixedAssign map[string]perf.ArrayKind) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if epochs < 1 {
		epochs = 1
	}
	if order == nil {
		canon, err := p.Deps.TopoSort()
		if err != nil {
			return nil, fmt.Errorf("dpipe: trace: problem %s: %w", p.Name, err)
		}
		order = canon
	}
	c, err := compile(p, spec, fixedAssign)
	if err != nil {
		return nil, fmt.Errorf("dpipe: trace: %w", err)
	}
	ord, err := c.opIndices(order)
	if err != nil {
		return nil, fmt.Errorf("dpipe: trace: problem %s: %w", p.Name, err)
	}
	var s scratch
	s.seq = sequence(nil, ord, c.firstSet(first), epochs)
	rec := &recorder{entries: make([]TraceEntry, 0, len(s.seq))}
	makespan, _ := c.sweep(&s, s.seq, epochs, nil, nil, rec)
	if rec.err != nil {
		return nil, rec.err
	}
	tr := &Trace{Problem: p.Name, Epochs: epochs, Entries: rec.entries, Makespan: makespan}
	// Deterministic entry order regardless of how the candidate sequence
	// interleaved the instances: sort by start time, breaking ties by op
	// name then epoch, so traces diff cleanly and exports are reproducible.
	sort.Slice(tr.Entries, func(i, j int) bool {
		a, b := tr.Entries[i], tr.Entries[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Epoch < b.Epoch
	})
	return tr, nil
}

// instance identifies one op execution in one epoch.
type instance struct {
	name  string
	epoch int
}

// Validate checks the trace's structural invariants: entries on the same
// array never overlap, and every dependency finishes before its consumer
// starts.
func (t *Trace) Validate(p *Problem) error {
	// Per-array non-overlap.
	byArray := map[perf.ArrayKind][]TraceEntry{}
	for _, e := range t.Entries {
		if e.End < e.Start {
			return fmt.Errorf("dpipe: trace: %s@%d ends (%f) before it starts (%f)", e.Op, e.Epoch, e.End, e.Start)
		}
		byArray[e.Array] = append(byArray[e.Array], e)
	}
	for arr, entries := range byArray {
		sorted := append([]TraceEntry(nil), entries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Start < sorted[i-1].End-1e-9 {
				return fmt.Errorf("dpipe: trace: overlap on %v: %s@%d [%f,%f) vs %s@%d [%f,%f)",
					arr, sorted[i-1].Op, sorted[i-1].Epoch, sorted[i-1].Start, sorted[i-1].End,
					sorted[i].Op, sorted[i].Epoch, sorted[i].Start, sorted[i].End)
			}
		}
	}
	// Dependency ordering.
	end := make(map[instance]float64, len(t.Entries))
	start := make(map[instance]float64, len(t.Entries))
	for _, e := range t.Entries {
		end[instance{e.Op, e.Epoch}] = e.End
		start[instance{e.Op, e.Epoch}] = e.Start
	}
	for _, e := range t.Entries {
		for _, pred := range p.Deps.Pred(e.Op) {
			if pe, ok := end[instance{pred, e.Epoch}]; ok && start[instance{e.Op, e.Epoch}] < pe-1e-9 {
				return fmt.Errorf("dpipe: trace: %s@%d starts before dependency %s@%d finishes", e.Op, e.Epoch, pred, e.Epoch)
			}
		}
		if e.Epoch > 0 {
			for _, se := range p.StateEdges {
				if se.To != e.Op {
					continue
				}
				if pe, ok := end[instance{se.From, e.Epoch - 1}]; ok && start[instance{e.Op, e.Epoch}] < pe-1e-9 {
					return fmt.Errorf("dpipe: trace: %s@%d starts before recurrence %s@%d finishes", e.Op, e.Epoch, se.From, e.Epoch-1)
				}
			}
		}
	}
	return nil
}

// BusyCycles returns the total busy time per array in the trace.
func (t *Trace) BusyCycles() (busy2D, busy1D float64) {
	for _, e := range t.Entries {
		if e.Array == perf.PE2D {
			busy2D += e.End - e.Start
		} else {
			busy1D += e.End - e.Start
		}
	}
	return busy2D, busy1D
}

// Gantt renders the trace as a two-lane ASCII timeline with the given
// character width. Each lane is one PE array; each cell shows the op that
// occupied that array during the corresponding time slice (first letters of
// its name), '.' for idle.
func (t *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	if t.Makespan == 0 || len(t.Entries) == 0 {
		return "(empty trace)\n"
	}
	lanes := map[perf.ArrayKind][]byte{
		perf.PE2D: bytesRepeat('.', width),
		perf.PE1D: bytesRepeat('.', width),
	}
	scale := float64(width) / t.Makespan
	for _, e := range t.Entries {
		lo := int(e.Start * scale)
		hi := int(e.End * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		label := e.Op
		lane := lanes[e.Array]
		for i := lo; i < hi && i < width; i++ {
			idx := i - lo
			if idx < len(label) {
				lane[i] = label[idx]
			} else {
				lane[i] = '='
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d epochs, makespan %.0f cycles\n", t.Problem, t.Epochs, t.Makespan)
	fmt.Fprintf(&b, "2D |%s|\n", lanes[perf.PE2D])
	fmt.Fprintf(&b, "1D |%s|\n", lanes[perf.PE1D])
	return b.String()
}

func bytesRepeat(c byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}
