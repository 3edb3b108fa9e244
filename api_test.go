package transfusion

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestNameLists(t *testing.T) {
	archs := ArchNames()
	if len(archs) != 4 {
		t.Fatalf("ArchNames = %v", archs)
	}
	models := ModelNames()
	if len(models) != 5 || models[len(models)-1] != "llama3" {
		t.Fatalf("ModelNames = %v", models)
	}
	systems := SystemNames()
	if len(systems) != 5 || systems[0] != "unfused" || systems[4] != "transfusion" {
		t.Fatalf("SystemNames = %v", systems)
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(RunSpec{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "fusemax"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Arch != "cloud" || res.Model != "t5" || res.System != "fusemax" || res.Batch != 64 {
		t.Fatalf("identity fields wrong: %+v", res)
	}
	if res.EnergyPJ.Total() <= 0 {
		t.Fatal("zero energy")
	}
	if len(res.LayerCycles) != 4 {
		t.Fatalf("LayerCycles = %v", res.LayerCycles)
	}
	sum := 0.0
	for _, c := range res.LayerCycles {
		sum += c
	}
	if math.Abs(sum-res.Cycles)/res.Cycles > 1e-6 {
		t.Fatalf("layer cycles %v do not sum to total %v", sum, res.Cycles)
	}
	if !strings.HasPrefix(res.Tile, "tile{") {
		t.Fatalf("Tile = %q", res.Tile)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []RunSpec{
		{Arch: "gpu", Model: "t5", SeqLen: 4096, System: "fusemax"},
		{Arch: "cloud", Model: "gpt", SeqLen: 4096, System: "fusemax"},
		{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "magic"},
		{Arch: "cloud", Model: "t5", SeqLen: 0, System: "fusemax"},
	}
	for _, c := range cases {
		if _, err := Run(c); err == nil {
			t.Errorf("Run(%+v) succeeded", c)
		}
	}
}

func TestCompareOrderingAndSpeedups(t *testing.T) {
	results, err := Compare("cloud", "t5", 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("Compare returned %d results", len(results))
	}
	if results[0].System != "unfused" || results[4].System != "transfusion" {
		t.Fatalf("order: %v, %v", results[0].System, results[4].System)
	}
	// TransFusion must be the fastest of the five.
	for _, r := range results[:4] {
		if results[4].Cycles > r.Cycles*1.001 {
			t.Errorf("transfusion (%v) slower than %s (%v)", results[4].Cycles, r.System, r.Cycles)
		}
	}
}

func TestRunSearchBudgetRecorded(t *testing.T) {
	res, err := Run(RunSpec{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion", SearchBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.TileSearchEvals < 1 {
		t.Fatalf("TileSearchEvals = %d", res.TileSearchEvals)
	}
}

func TestVerifyCascades(t *testing.T) {
	dev, err := VerifyCascades(7)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-9 {
		t.Fatalf("functional deviation %v too large", dev)
	}
}

func TestStreamingAttentionAPI(t *testing.T) {
	q, err := RandTensor(1, "h", 2, "e", 4, "p", 3)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := RandTensor(2, "h", 2, "e", 4, "m", 6)
	v, _ := RandTensor(3, "h", 2, "f", 4, "m", 6)
	got, err := RunStreamingAttention(q, k, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceAttention(q, k, v)
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("streaming deviates by %v", d)
	}
	// Bad inner tile.
	if _, err := RunStreamingAttention(q, k, v, 5); err == nil {
		t.Fatal("non-dividing m0 accepted")
	}
}

func TestRandTensorErrors(t *testing.T) {
	if _, err := RandTensor(1, "h"); err == nil {
		t.Fatal("odd arg count accepted")
	}
	if _, err := RandTensor(1, 2, 3); err == nil {
		t.Fatal("non-string name accepted")
	}
	if _, err := RandTensor(1, "h", "x"); err == nil {
		t.Fatal("non-int size accepted")
	}
}

func TestExperimentsAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 16 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	desc, err := ExperimentDescription("fig8a")
	if err != nil || !strings.Contains(desc, "Llama3") {
		t.Fatalf("description = %q, %v", desc, err)
	}
	if _, err := ExperimentDescription("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	out, err := RunExperiment("table3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "256x256") {
		t.Fatalf("table3 output missing cloud spec:\n%s", out)
	}
	if _, err := RunExperiment("nope", 0); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

// The causal extension: masked attention must cost roughly half the
// bidirectional MHA cycles at long sequences (each query sees ~N/2 keys on
// average), and never more.
func TestCausalHalvesAttentionWork(t *testing.T) {
	bi, err := Run(RunSpec{Arch: "cloud", Model: "bert", SeqLen: 65536, System: "fusemax"})
	if err != nil {
		t.Fatal(err)
	}
	causal, err := Run(RunSpec{Arch: "cloud", Model: "bert", SeqLen: 65536, System: "fusemax", Causal: true})
	if err != nil {
		t.Fatal(err)
	}
	// The visible-KV halving cuts epochs ~2x, but the mask-add Einsum
	// lengthens the 1D softmax chain that bounds FuseMax's static pipeline
	// (3 -> 4 streaming ops), so the net ratio lands near 0.5 * 4/3 ~ 0.67.
	ratio := causal.LayerCycles["MHA"] / bi.LayerCycles["MHA"]
	if ratio > 0.72 || ratio < 0.4 {
		t.Fatalf("causal MHA ratio = %v, want 0.4-0.72", ratio)
	}
	if causal.Cycles > bi.Cycles {
		t.Fatalf("causal (%v) slower than bidirectional (%v)", causal.Cycles, bi.Cycles)
	}
	// Non-attention layers are unaffected.
	for _, k := range []string{"QKV", "FFN"} {
		rel := causal.LayerCycles[k] / bi.LayerCycles[k]
		if rel < 0.95 || rel > 1.05 {
			t.Fatalf("%s changed under causal masking: ratio %v", k, rel)
		}
	}
}

func TestRunExperimentCSV(t *testing.T) {
	out, err := RunExperimentCSV("table3", 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 presets
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name,") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestScheduleTrace(t *testing.T) {
	out, err := ScheduleTrace("edge", "bert", 4096, "mha", 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2D |", "1D |", "candidate schedules"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if _, err := ScheduleTrace("edge", "bert", 4096, "nonsense", 4, 80); err == nil {
		t.Fatal("unknown sub-layer accepted")
	}
	if _, err := ScheduleTrace("nope", "bert", 4096, "mha", 4, 80); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestCausalAttentionAPI(t *testing.T) {
	q, _ := RandTensor(4, "h", 2, "e", 4, "p", 3)
	k, _ := RandTensor(5, "h", 2, "e", 4, "m", 8)
	v, _ := RandTensor(6, "h", 2, "f", 4, "m", 8)
	got, err := RunCausalAttention(q, k, v, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceCausalAttention(q, k, v, 3)
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("causal API deviates by %v", d)
	}
	if _, err := RunCausalAttention(q, k, v, 3, 0); err == nil {
		t.Fatal("non-dividing m0 accepted")
	}
	if _, err := RunCausalAttention(q, k, v, 2, -1); err == nil {
		t.Fatal("negative qStart accepted")
	}
}

func TestRunEncoderDecoder(t *testing.T) {
	res, err := RunEncoderDecoder(StackSpec{
		Arch: "cloud", Model: "t5", System: "fusemax", EncSeq: 4096, DecSeq: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Encoder.Cycles + res.DecoderSelf.Cycles + res.DecoderCross.Cycles
	if math.Abs(sum-res.Cycles)/res.Cycles > 1e-9 {
		t.Fatalf("stack parts %v != total %v", sum, res.Cycles)
	}
	if res.EnergyPJ.Total() <= 0 || res.Seconds <= 0 {
		t.Fatalf("bad stack aggregates: %+v", res)
	}
	if _, err := RunEncoderDecoder(StackSpec{Arch: "x", Model: "t5", System: "fusemax", EncSeq: 1024, DecSeq: 512}); err == nil {
		t.Fatal("bad arch accepted")
	}
}

func TestExplain(t *testing.T) {
	out, err := Explain(RunSpec{Arch: "cloud", Model: "bert", SeqLen: 4096, System: "unfused"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Phase", "kvproj", "mha", "Bound", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	if _, err := Explain(RunSpec{Arch: "bad", Model: "bert", SeqLen: 4096, System: "unfused"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestRunWithArchFileAndCustomModel(t *testing.T) {
	path := t.TempDir() + "/arch.json"
	content := `{"name":"widepu","pe2dRows":32,"pe2dCols":32,"pe1dLanes":256,"bufferBytes":4194304,"dramBandwidthGBs":60,"clockGHz":1.0}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunSpec{
		ArchFile: path,
		SeqLen:   4096,
		System:   "fusemax",
		CustomModel: &CustomModel{
			Name: "mini", Heads: 8, HeadDim: 64, FFNHidden: 2048, Layers: 4, Activation: "relu",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arch != "widepu" || res.Model != "mini" {
		t.Fatalf("identity fields: %+v", res)
	}
	if res.Cycles <= 0 {
		t.Fatal("degenerate result")
	}
	// Bad file and bad custom model.
	if _, err := Run(RunSpec{ArchFile: path + ".nope", SeqLen: 4096, System: "fusemax", Model: "t5"}); err == nil {
		t.Fatal("missing arch file accepted")
	}
	if _, err := Run(RunSpec{Arch: "cloud", SeqLen: 4096, System: "fusemax",
		CustomModel: &CustomModel{Name: "bad"}}); err == nil {
		t.Fatal("invalid custom model accepted")
	}
}

func TestCanonicalKeyNormalisesDefaults(t *testing.T) {
	base := RunSpec{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion"}
	explicit := base
	explicit.Batch = 64         // model.EvalBatch, the default
	explicit.SearchBudget = 128 // pipeline.DefaultOptions().TileSeekIterations
	if base.CanonicalKey() != explicit.CanonicalKey() {
		t.Fatalf("defaulted and explicit-default specs key differently:\n%s\n%s",
			base.CanonicalKey(), explicit.CanonicalKey())
	}

	// Execution knobs that cannot change the result are excluded from the key.
	tuned := base
	tuned.Parallelism = 4
	if base.CanonicalKey() != tuned.CanonicalKey() {
		t.Fatal("Parallelism leaked into the canonical key")
	}

	// Every result-affecting field must move the key.
	variants := []RunSpec{
		{Arch: "cloud", Model: "bert", SeqLen: 4096, System: "transfusion"},
		{Arch: "edge", Model: "t5", SeqLen: 4096, System: "transfusion"},
		{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion"},
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "fusemax"},
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion", Batch: 32},
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion", SearchBudget: 8},
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion", Causal: true},
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion",
			CustomModel: &CustomModel{Name: "mini", Heads: 8, HeadDim: 64, FFNHidden: 2048, Layers: 4, Activation: "relu"}},
	}
	seen := map[string]int{base.CanonicalKey(): -1}
	for i, v := range variants {
		k := v.CanonicalKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d keys identically to variant %d: %s", i, prev, k)
		}
		seen[k] = i
	}

	// Injectivity: string fields containing the key's own separator characters
	// must not let two distinct specs collide. Under an unquoted encoding both
	// of these would render as arch=a|archfile=b|...
	smuggled := RunSpec{Arch: "a|archfile=b", SeqLen: 4096, System: "transfusion", Model: "bert"}
	split := RunSpec{Arch: "a", ArchFile: "b", SeqLen: 4096, System: "transfusion", Model: "bert"}
	if smuggled.CanonicalKey() == split.CanonicalKey() {
		t.Fatalf("separator-smuggling specs collide: %s", smuggled.CanonicalKey())
	}
}

func TestParseCanonicalKeyRoundTrip(t *testing.T) {
	specs := []RunSpec{
		{Arch: "edge", Model: "bert", SeqLen: 4096, System: "transfusion"},
		{Arch: "cloud", Model: "llama3-70b", SeqLen: 65536, System: "fusemax", Batch: 8, SearchBudget: 32, Causal: true},
		{Arch: "edge", Model: "t5", SeqLen: 1024, System: "transfusion", HeuristicOnly: true, SearchTimeout: 3 * time.Second},
		{ArchFile: "/tmp/weird|arch=\"file\".json", Model: "bert", SeqLen: 2048, System: "transfusion"},
		{Arch: "a|archfile=b", SeqLen: 4096, System: "transfusion", Model: "bert"},
		{Arch: "edge", SeqLen: 4096, System: "transfusion",
			CustomModel: &CustomModel{Name: "mini", Heads: 8, HeadDim: 64, FFNHidden: 2048, Layers: 4, Activation: "relu"}},
	}
	for i, spec := range specs {
		key := spec.CanonicalKey()
		got, ok := ParseCanonicalKey(key)
		if !ok {
			t.Fatalf("spec %d: own canonical key %q did not parse", i, key)
		}
		if got.CanonicalKey() != key {
			t.Fatalf("spec %d: round-trip changed the key:\n in %s\nout %s", i, key, got.CanonicalKey())
		}
	}

	// Malformed keys must be rejected, never mis-parsed.
	for _, bad := range []string{
		"",
		"arch=edge",
		"not a key at all",
		`arch="edge|archfile=""|model="bert"|seq=x|sys="transfusion"|batch=64|budget=128|causal=false|timeout=0s|heur=false`,
		`arch="edge"|model="bert"|archfile=""|seq=4096|sys="transfusion"|batch=64|budget=128|causal=false|timeout=0s|heur=false`,
		`arch="edge"|archfile=""|model="bert"|seq=4096|sys="transfusion"|batch=64|budget=128|causal=maybe|timeout=0s|heur=false`,
		`arch="edge"|archfile=""|model="bert"|seq=4096|sys="transfusion"|batch=64|budget=128|causal=false|timeout=0s|heur=false|trailing`,
	} {
		if spec, ok := ParseCanonicalKey(bad); ok {
			t.Fatalf("malformed key %q parsed into %+v", bad, spec)
		}
	}
}
