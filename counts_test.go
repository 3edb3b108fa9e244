package transfusion_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
)

// The search's counts are a property of the specs: the BenchmarkRunContext
// spec list, planned twice, each time from an empty schedule memo and DPipe
// front cache, evaluates the same tiles, answers the same sub-layer
// schedules from the memo, fills the same DP cells and answers the same
// plans from fronts, with bit-identical results.
func TestRunContextCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve cold searches per run")
	}
	counters := []string{"tileseek.evaluated", "tileseek.cache_misses", "pipeline.memo_hits", "pipeline.memo_misses", "dpipe.dp_cells", "dpipe.front_hits", "dpipe.front_misses"}
	run := func() ([]transfusion.RunResult, map[string]int64) {
		pipeline.ResetSchedules()
		reg := transfusion.NewMetrics()
		ctx := transfusion.WithMetrics(context.Background(), reg)
		var results []transfusion.RunResult
		for _, s := range runContextSpecs() {
			res, err := transfusion.RunContext(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		counts := make(map[string]int64, len(counters))
		for _, name := range counters {
			counts[name] = reg.Counter(name).Value()
		}
		return results, counts
	}
	first, firstCounts := run()
	if firstCounts["tileseek.evaluated"] == 0 || firstCounts["dpipe.dp_cells"] == 0 {
		t.Fatalf("degenerate counts %v", firstCounts)
	}
	again, againCounts := run()
	if !reflect.DeepEqual(againCounts, firstCounts) {
		t.Fatalf("counts on the repeat %v, first %v", againCounts, firstCounts)
	}
	for i := range first {
		if !reflect.DeepEqual(again[i], first[i]) {
			t.Fatalf("spec %d: result on the repeat differs:\n%+v\nvs\n%+v", i, again[i], first[i])
		}
	}
	t.Logf("counts: %v", firstCounts)
}
