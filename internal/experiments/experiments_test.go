package experiments

import (
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

func fastRunner() *Runner {
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 8
	return NewRunner(opts)
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// The paper's evaluation artifacts must all be present.
	for _, want := range []string{"table1", "table2", "table3", "fig8a", "fig8b", "fig9a",
		"fig9b", "fig10a", "fig10b", "fig11", "fig12a", "fig12b", "fig13", "headline",
		"ablation-tileseek", "ablation-dpipe", "ablation-attention-passes",
		"sensitivity-bandwidth", "sensitivity-causal", "stack-t5"} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8a")
	if err != nil || e.ID != "fig8a" {
		t.Fatalf("ByID(fig8a) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestEvalCaches(t *testing.T) {
	r := fastRunner()
	a, err := r.Eval(arch.Cloud(), model.T5(), 4096, pipeline.FuseMax())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Eval(arch.Cloud(), model.T5(), 4096, pipeline.FuseMax())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("cache returned different result")
	}
	if r.cache.Len() != 1 {
		t.Fatalf("cache size = %d", r.cache.Len())
	}
}

func TestStaticTables(t *testing.T) {
	r := fastRunner()
	for _, id := range []string{"table1", "table3"} {
		e, _ := ByID(id)
		tb, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tb.NumRows() == 0 {
			t.Fatalf("%s: empty table", id)
		}
	}
	t3, _ := ByID("table3")
	tb, err := t3.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"256x256", "16x16", "16MB", "5MB", "400GB/s", "30GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2AllFeasible(t *testing.T) {
	tb, err := Table2(fastRunner())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if strings.Contains(out, "false") {
		t.Fatalf("an infeasible heuristic tile appeared in Table 2:\n%s", out)
	}
	if tb.NumRows() != 10 { // 5 models x 2 archs
		t.Fatalf("Table 2 rows = %d, want 10", tb.NumRows())
	}
}

// Run the cheap figure experiments end to end with a tiny search budget and
// verify row counts match their sweep definitions.
func TestFigureRowCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps in short mode")
	}
	r := fastRunner()
	cases := []struct {
		id   string
		rows int
	}{
		{"fig8a", 12},  // 2 archs x 6 seqs
		{"fig10a", 24}, // 6 seqs x 4 systems
		{"fig11", 12},  // 2 archs x 6 seqs
		{"fig12a", 12}, // 2 archs x 6 seqs
		{"fig13", 24},  // 2 archs x 6 seqs x 2 systems
	}
	for _, c := range cases {
		e, _ := ByID(c.id)
		tb, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if tb.NumRows() != c.rows {
			t.Errorf("%s rows = %d, want %d", c.id, tb.NumRows(), c.rows)
		}
	}
}

func TestAblationDPipeRuns(t *testing.T) {
	tb, err := AblationDPipe(fastRunner())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 10 { // 2 archs x 5 sub-layers
		t.Fatalf("ablation-dpipe rows = %d, want 10", tb.NumRows())
	}
}

func TestAttentionPassesAblation(t *testing.T) {
	tb, err := AblationAttentionPasses(fastRunner())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 6 { // 2 archs x 3 dataflows
		t.Fatalf("rows = %d, want 6", tb.NumRows())
	}
	// The 1-pass rows are the reference: their ratio column must be 1.00.
	out := tb.Render()
	if !strings.Contains(out, "1-pass") || !strings.Contains(out, "2-pass") {
		t.Fatalf("missing dataflow rows:\n%s", out)
	}
}

func TestStackT5Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("stack sweep in short mode")
	}
	tb, err := StackT5(fastRunner())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 6 { // 2 archs x 3 systems
		t.Fatalf("rows = %d, want 6", tb.NumRows())
	}
}
