package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The /v1/plan and /v1/compare bodies, pinned byte for byte against golden
// files: a fresh search, its repeat from memory, and a compare that reuses
// the searched cell. Every field but the wall-clock elapsed_ms is
// deterministic; regenerate with -update after an intentional change.
func TestPlanAndCompareGoldenBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{WatchdogTimeout: -1})
	for _, tc := range []struct {
		golden, route, body string
	}{
		{"plan_search.json", "/v1/plan", searchPlanBody},
		{"plan_memory.json", "/v1/plan", searchPlanBody},
		{"compare.json", "/v1/compare", `{"arch":"edge","model":"bert","seq_len":1024,"search_budget":8}`},
	} {
		resp, data := post(t, ts.URL+tc.route, tc.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.golden, resp.StatusCode, data)
		}
		got := elapsedRe.ReplaceAll(data, []byte(`"elapsed_ms": 0`))
		path := filepath.Join("testdata", "golden", tc.golden)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run: go test ./internal/serve -run TestPlanAndCompareGoldenBodies -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden (regenerate with -update if intentional):\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}
