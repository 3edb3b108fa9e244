package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/serve"
)

// answerFor renders res the way transfusiond does.
func answerFor(t *testing.T, req *request, res transfusion.RunResult, source string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(serve.PlanResponse{Result: res, Key: req.key, Source: source, ElapsedMS: 0.25}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckerFailsWrongAnswers(t *testing.T) {
	spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 4096, System: "unfused", Parallelism: 1}
	res, err := transfusion.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 0
	req := newRequest(spec)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	corpusCheck := &checker{sources: []string{"memory", "disk"}, want: map[string][]byte{req.key: want}}
	searchCheck := &checker{sources: []string{"memory", "disk"}}
	ok := http.Header{"X-Plan-Source": {"memory"}}

	perturbed := res
	perturbed.Cycles++
	degraded := res
	degraded.Degraded, degraded.DegradedReason = true, "tile search skipped"
	tileless := res
	tileless.Tile = ""
	for _, c := range []struct {
		name   string
		check  *checker
		status int
		hdr    http.Header
		body   []byte
		fails  bool
	}{
		{"correct", corpusCheck, 200, ok, answerFor(t, &req, res, "memory"), false},
		{"correct, no corpus", searchCheck, 200, ok, answerFor(t, &req, res, "memory"), false},
		{"one field perturbed", corpusCheck, 200, ok, answerFor(t, &req, perturbed, "memory"), true},
		{"non-200", corpusCheck, 503, ok, []byte(`{"error":"overloaded","status":503}`), true},
		{"degraded body", corpusCheck, 200, ok, answerFor(t, &req, degraded, "memory"), true},
		{"degraded body, no corpus", searchCheck, 200, ok, answerFor(t, &req, degraded, "memory"), true},
		{"degraded header", corpusCheck, 200, http.Header{"X-Plan-Source": {"memory"}, "Served-Degraded": {"heuristic"}}, answerFor(t, &req, res, "memory"), true},
		{"no tile", searchCheck, 200, ok, answerFor(t, &req, tileless, "memory"), true},
		{"unexpected source", corpusCheck, 200, http.Header{"X-Plan-Source": {"search"}}, answerFor(t, &req, res, "search"), true},
		{"undecodable", corpusCheck, 200, ok, []byte(`{"result":`), true},
	} {
		a := c.check.check(&req, c.status, c.hdr, c.body)
		if got := a.fail != ""; got != c.fails {
			t.Errorf("%s: failed = %v (%q), want %v", c.name, got, a.fail, c.fails)
		}
	}
}

func TestReferenceCheckFailsAWrongResult(t *testing.T) {
	spec := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 4096, System: "flat"}
	in := &inputs{reqs: []request{newRequest(spec), newRequest(spec)}}
	res, err := transfusion.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	right, _ := json.Marshal(res)
	res.DRAMBytes *= 2
	wrong, _ := json.Marshal(res)
	samples := []sample{{pos: 0, answer: answer{result: right}}, {pos: 1, answer: answer{result: wrong}}}
	if err := verifyReferences(context.Background(), in, samples, &corpus{}); err != nil {
		t.Fatal(err)
	}
	if samples[0].fail != "" || samples[1].fail == "" {
		t.Errorf("fails = %q, %q; want only the second", samples[0].fail, samples[1].fail)
	}
}

func TestExitCodeIsNonZeroOnAnyWrongResult(t *testing.T) {
	for _, c := range []struct {
		name string
		rs   []result
		want int
	}{
		{"all correct", []result{{attempted: 5}, {attempted: 3}}, 0},
		{"one failed answer", []result{{attempted: 5}, {attempted: 3, failed: 1}}, 1},
		{"a failed check", []result{{attempted: 5, problems: []string{"2 tile searches ran"}}}, 1},
	} {
		if got := exitCode(c.rs); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}
