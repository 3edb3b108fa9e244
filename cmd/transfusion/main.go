// Command transfusion evaluates a Transformer workload on a modelled
// spatial accelerator under one of the five systems from the paper's
// evaluation, printing latency, energy, utilization, and the per-layer
// latency breakdown.
//
// Usage:
//
//	transfusion -arch cloud -model llama3 -seq 65536 -system transfusion
//	transfusion -arch edge -model bert -seq 4096 -compare
//	transfusion -arch edge -model bert -seq 4096 -progress -metrics-out m.json -trace-out t.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/fusedmindlab/transfusion"
)

func main() {
	// Ctrl-C / SIGTERM cancels the in-flight search and evaluation cleanly
	// (the library aborts within one rollout / schedule candidate).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fatal(err)
	}
}

func run(ctx context.Context) error {
	archName := flag.String("arch", "cloud", "architecture preset: "+strings.Join(transfusion.ArchNames(), ", "))
	modelName := flag.String("model", "llama3", "workload model: "+strings.Join(transfusion.ModelNames(), ", "))
	seq := flag.Int("seq", 65536, "sequence length (powers of two are safe)")
	system := flag.String("system", "transfusion", "system: "+strings.Join(transfusion.SystemNames(), ", "))
	batch := flag.Int("batch", 0, "batch size (0 = the paper's default of 64)")
	budget := flag.Int("budget", 0, "TileSeek rollout budget (0 = default)")
	compare := flag.Bool("compare", false, "evaluate all five systems and print speedups over Unfused")
	trace := flag.String("trace", "", "render the DPipe schedule Gantt for a sub-layer (qproj, kvproj, mha, ln, ffn)")
	causal := flag.Bool("causal", false, "decoder-style causal masking")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	explain := flag.Bool("explain", false, "print the per-phase roofline anatomy")
	archFile := flag.String("arch-file", "", "load the architecture from a JSON file instead of a preset")
	sweep := flag.Bool("sweep", false, "sweep the 1K-1M sequence range for the chosen system, CSV to stdout")
	searchTimeout := flag.Duration("search-timeout", 0, "soft TileSeek wall-clock bound; on expiry fall back to the heuristic tile and report degraded (0 = none)")
	logLevel := flag.String("log-level", "warn", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (counters/gauges/histograms) to this file on exit")
	traceOut := flag.String("trace-out", "", "write the DPipe schedules of all sub-layers as Chrome trace_event JSON (load in Perfetto / chrome://tracing)")
	progress := flag.Bool("progress", false, "stream search progress to stderr (rollout ticker, phase markers)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	level, err := transfusion.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	ctx = transfusion.WithLogger(ctx, transfusion.NewLogger(os.Stderr, level, *logJSON))
	metrics := transfusion.NewMetrics()
	ctx = transfusion.WithMetrics(ctx, metrics)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "transfusion:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "transfusion:", err)
			}
		}()
	}
	if *metricsOut != "" {
		defer func() {
			snap := metrics.Snapshot()
			data, err := snap.JSON()
			if err == nil {
				err = os.WriteFile(*metricsOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "transfusion:", err)
			}
		}()
	}

	base := transfusion.RunSpec{
		Arch: *archName, Model: *modelName, SeqLen: *seq, System: *system,
		Batch: *batch, SearchBudget: *budget, Causal: *causal, ArchFile: *archFile,
		SearchTimeout: *searchTimeout,
	}
	if *progress {
		base.Progress = progressPrinter(os.Stderr)
	}

	if *traceOut != "" {
		data, err := transfusion.ChromeTraceSchedule(*archName, *modelName, *seq, 6)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "transfusion: wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *sweep {
		fmt.Println("seq,cycles,seconds,energy_pj,util2d,util1d")
		for _, n := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
			spec := base
			spec.SeqLen = n
			r, err := transfusion.RunContext(ctx, spec)
			if err != nil {
				return err
			}
			fmt.Printf("%d,%.6g,%.6g,%.6g,%.3f,%.3f\n",
				n, r.Cycles, r.Seconds, r.EnergyPJ.Total(), r.Utilization2D, r.Utilization1D)
		}
		return nil
	}

	if *explain {
		out, err := transfusion.Explain(base)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	if *trace != "" {
		out, err := transfusion.ScheduleTrace(*archName, *modelName, *seq, *trace, 6, 100)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	if *compare {
		// Evaluate each system through the same base spec (rather than
		// CompareContext) so the progress hook and metrics follow along.
		results := make([]transfusion.RunResult, 0, 5)
		for _, name := range transfusion.SystemNames() {
			spec := base
			spec.System = name
			r, err := transfusion.RunContext(ctx, spec)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		unfused := results[0]
		fmt.Printf("%-18s %-12s %-12s %-9s %-8s %-8s %-12s %s\n",
			"system", "cycles", "seconds", "speedup", "2D util", "1D util", "energy (pJ)", "degraded")
		for _, r := range results {
			degraded := "-"
			if r.Degraded {
				degraded = "yes"
			}
			fmt.Printf("%-18s %-12.4g %-12.4g %-9.2f %-8.0f %-8.0f %-12.4g %s\n",
				r.System, r.Cycles, r.Seconds, unfused.Cycles/r.Cycles,
				r.Utilization2D*100, r.Utilization1D*100, r.EnergyPJ.Total(), degraded)
		}
		return nil
	}

	res, err := transfusion.RunContext(ctx, base)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("system        %s on %s (%s, seq %d, batch %d)\n", res.System, res.Arch, res.Model, res.SeqLen, res.Batch)
	fmt.Printf("latency       %.4g cycles  (%.4g s)\n", res.Cycles, res.Seconds)
	fmt.Printf("utilization   2D %.0f%%   1D %.0f%%\n", res.Utilization2D*100, res.Utilization1D*100)
	fmt.Printf("outer tile    %s\n", res.Tile)
	if res.TileSearchEvals > 0 {
		fmt.Printf("tile search   %d objective evaluations\n", res.TileSearchEvals)
	}
	if res.Degraded {
		fmt.Printf("degraded      %s\n", res.DegradedReason)
	}
	fmt.Printf("DRAM traffic  %.4g bytes\n", res.DRAMBytes)
	e := res.EnergyPJ
	fmt.Printf("energy        %.4g pJ  (DRAM %.0f%%, buffer %.0f%%, RF %.0f%%, PE %.0f%%)\n",
		e.Total(), 100*e.DRAM/e.Total(), 100*e.Buffer/e.Total(), 100*e.RegFile/e.Total(), 100*e.PE/e.Total())
	fmt.Println("per-layer latency share:")
	for _, k := range []string{"QKV", "MHA", "Add&LayerNorm", "FFN"} {
		fmt.Printf("  %-14s %.1f%%\n", k, 100*res.LayerCycles[k]/res.Cycles)
	}
	return nil
}

// progressPrinter streams search progress to w: phase markers, a rollout
// ticker throttled to roughly five lines a second, and degradations. It runs
// synchronously on the evaluating goroutine, so it stays cheap.
func progressPrinter(w *os.File) transfusion.ProgressFunc {
	var last time.Time
	return func(ev transfusion.ProgressEvent) {
		switch e := ev.(type) {
		case transfusion.RolloutDoneEvent:
			if e.Iteration < e.Budget && time.Since(last) < 200*time.Millisecond {
				return
			}
			last = time.Now()
			best := "-"
			if e.Found {
				best = fmt.Sprintf("%.4g", e.BestCost)
			}
			fmt.Fprintf(w, "tileseek  rollout %d/%d  best %s cycles  (%d node visits)\n",
				e.Iteration, e.Budget, best, e.Visits)
		case transfusion.PhaseStartEvent:
			fmt.Fprintf(w, "phase     %s start\n", e.Phase)
		case transfusion.PhaseEndEvent:
			fmt.Fprintf(w, "phase     %s done in %s\n", e.Phase, e.Duration.Round(time.Millisecond))
		case transfusion.DegradedEvent:
			fmt.Fprintf(w, "degraded  %s\n", e.Reason)
		}
	}
}

func fatal(err error) {
	// Library errors already carry the "transfusion: " package prefix;
	// avoid printing it twice.
	fmt.Fprintln(os.Stderr, "transfusion:", strings.TrimPrefix(err.Error(), "transfusion: "))
	os.Exit(1)
}
