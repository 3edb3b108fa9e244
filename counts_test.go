package transfusion_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
)

// The search's counts are a property of the specs, not of the schedule: the
// BenchmarkRunContext spec list, planned from an empty DPipe front cache,
// evaluates the same tiles, fills the same DP cells and answers the same
// plans from fronts at Parallelism 1 and 4, with bit-identical results.
func TestRunContextCountsRepeatAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve cold searches per leg")
	}
	counters := []string{"tileseek.evaluated", "tileseek.cache_misses", "dpipe.dp_cells", "dpipe.front_hits", "dpipe.front_misses"}
	run := func(parallelism int) ([]transfusion.RunResult, map[string]int64) {
		dpipe.ResetFronts()
		reg := transfusion.NewMetrics()
		ctx := transfusion.WithMetrics(context.Background(), reg)
		var results []transfusion.RunResult
		for _, s := range runContextSpecs(parallelism) {
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
	serial, serialCounts := run(1)
	if serialCounts["tileseek.evaluated"] == 0 || serialCounts["dpipe.dp_cells"] == 0 {
		t.Fatalf("degenerate serial counts %v", serialCounts)
	}
	par, parCounts := run(4)
	if !reflect.DeepEqual(parCounts, serialCounts) {
		t.Fatalf("counts at Parallelism 4 %v, at 1 %v", parCounts, serialCounts)
	}
	for i := range serial {
		if !reflect.DeepEqual(par[i], serial[i]) {
			t.Fatalf("spec %d: result at Parallelism 4 differs from 1:\n%+v\nvs\n%+v", i, par[i], serial[i])
		}
	}
	t.Logf("counts at Parallelism 1 and 4: %v", serialCounts)
}
