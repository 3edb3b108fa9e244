package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
)

// FuzzServePlan throws arbitrary bodies at the /v1/plan decoder and handler:
// malformed JSON, wrong field types, extreme extents, unknown fields. The
// handler must never panic, must answer a well-formed JSON error with a 4xx
// for anything invalid, and any 200 body must decode back into a
// PlanResponse with a plausible result. Server caps are kept tiny so even a
// "valid" fuzz input evaluates in microseconds.
func FuzzServePlan(f *testing.F) {
	seeds := []string{
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":2}`,
		`{"arch":"cloud","model":"llama3","seq_len":4096,"system":"fusemax","batch":64,"causal":true}`,
		`{"arch":`,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"arch":"edge","model":"bert","seq_len":"big","system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1e30,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":-9223372036854775808,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","batch":-1}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","extra":1}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}{"trailing":true}`,
		`{"arch":"\u0000","model":"bert","seq_len":1024,"system":"unfused"}`,
		strings.Repeat("[", 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := New(Config{
		MaxSeqLen:       4096,
		MaxSearchBudget: 8,
		CacheEntries:    64,
	}, obs.NewRegistry(), context.Background())
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		resp := rec.Result()
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading recorded body: %v", err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var pr PlanResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				t.Fatalf("200 body is not a PlanResponse: %v\n%s", err, data)
			}
			if pr.Result.Cycles <= 0 || pr.Result.System == "" {
				t.Fatalf("200 with implausible result: %+v", pr.Result)
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("%d body is not an errorResponse: %v\n%s", resp.StatusCode, err, data)
			}
			if er.Status != resp.StatusCode || er.Error == "" {
				t.Fatalf("%d with inconsistent error body: %+v", resp.StatusCode, er)
			}
		default:
			// No fuzz input should reach a 5xx: decoding and validation run
			// before any evaluation, and the evaluation itself is bounded by
			// the tiny caps above.
			t.Fatalf("unexpected status %d:\n%s", resp.StatusCode, data)
		}
	})
}
