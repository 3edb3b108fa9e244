package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"github.com/fusedmindlab/transfusion"
)

// checker judges each answer as it arrives.
type checker struct {
	sources []string
	// want holds the expected result of every key as compact JSON; nil for
	// workloads whose results are checked against in-process references
	// after the run.
	want map[string][]byte
}

// planBody is the part of a /v1/plan answer the checker reads.
type planBody struct {
	Result    json.RawMessage `json:"result"`
	Key       string          `json:"key"`
	Source    string          `json:"source"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// answer is what the checker extracts from one response.
type answer struct {
	source  string
	elapsed float64 // server-side handling time in ms
	result  []byte  // compact result JSON
	fail    string  // why the answer is wrong; "" when it passed
}

// check judges one response to req.
func (c *checker) check(req *request, status int, hdr http.Header, body []byte) answer {
	if status != http.StatusOK {
		return answer{fail: fmt.Sprintf("status %d: %.200s", status, body)}
	}
	var pb planBody
	if err := json.Unmarshal(body, &pb); err != nil {
		return answer{fail: fmt.Sprintf("undecodable body: %v", err)}
	}
	a := answer{source: hdr.Get("X-Plan-Source"), elapsed: pb.ElapsedMS}
	var buf bytes.Buffer
	if err := json.Compact(&buf, pb.Result); err != nil {
		a.fail = fmt.Sprintf("undecodable result: %v", err)
		return a
	}
	a.result = buf.Bytes()
	switch {
	case !slices.Contains(c.sources, a.source) || pb.Source != a.source:
		a.fail = fmt.Sprintf("source %q (body %q), want one of %v", a.source, pb.Source, c.sources)
	case pb.Key != req.key:
		a.fail = fmt.Sprintf("key %q, want %q", pb.Key, req.key)
	case hdr.Get("Served-Degraded") != "":
		a.fail = "degraded answer"
	case c.want != nil:
		// The corpus holds only full-fidelity plans, so a match also rules
		// out a degraded or tileless answer.
		if !bytes.Equal(a.result, c.want[req.key]) {
			a.fail = "result differs from the corpus"
		}
	default:
		var res struct {
			Degraded bool
			Tile     string
		}
		switch err := json.Unmarshal(a.result, &res); {
		case err != nil:
			a.fail = fmt.Sprintf("undecodable result: %v", err)
		case res.Degraded:
			a.fail = "degraded answer"
		case res.Tile == "":
			a.fail = "no tile"
		}
	}
	return a
}

// reference computes what RunContext at Parallelism 1 answers for req: the
// cold search, or for a near-miss request the search warm-started from its
// seeded neighbour's plan.
func reference(ctx context.Context, req *request, c *corpus) ([]byte, error) {
	spec := req.spec
	spec.Parallelism = 1
	if req.hint != "" {
		spec.WarmHint = c.res[req.hint].Plan
	}
	res, err := transfusion.RunContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// verifyReferences recomputes the reference for every position whose
// result a sample kept, once per position, and marks the samples that differ
// as failed.
func verifyReferences(ctx context.Context, in *inputs, samples []sample, c *corpus) error {
	byPos := make(map[int64][]int)
	var positions []int64
	for i, s := range samples {
		if s.result != nil && s.fail == "" {
			if byPos[s.pos] == nil {
				positions = append(positions, s.pos)
			}
			byPos[s.pos] = append(byPos[s.pos], i)
		}
	}
	return parallel(len(positions), func(i int) error {
		req, _ := in.next(positions[i])
		want, err := reference(ctx, req, c)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", req.key, err)
		}
		// Each position owns its samples, so no two calls write the same one.
		for _, j := range byPos[positions[i]] {
			if !bytes.Equal(want, samples[j].result) {
				samples[j].fail = "result differs from in-process RunContext"
			}
		}
		return nil
	})
}
