// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§6). Without flags it runs every experiment in
// presentation order; -exp selects one by ID.
//
// Usage:
//
//	experiments                 # everything (several minutes)
//	experiments -list           # list experiment IDs
//	experiments -exp fig8a      # one artifact
//	experiments -budget 32      # faster, smaller TileSeek budget
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/fusedmindlab/transfusion"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	exp := flag.String("exp", "", "experiment ID to run (empty = all)")
	budget := flag.Int("budget", 0, "TileSeek rollout budget (0 = default)")
	parallelism := flag.Int("parallelism", 0, "worker-pool size for grid cells, sub-layer scheduling, and DPipe (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	format := flag.String("format", "table", "output format: table or csv")
	logLevel := flag.String("log-level", "warn", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, id := range transfusion.ExperimentIDs() {
			desc, _ := transfusion.ExperimentDescription(id)
			fmt.Printf("%-18s %s\n", id, desc)
		}
		return nil
	}

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
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
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
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	ids := transfusion.ExperimentIDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := transfusion.RunExperimentReportOptions(ctx, id, transfusion.ExperimentRunOptions{
			SearchBudget: *budget, Parallelism: *parallelism,
			CSV: *format == "csv",
		})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", id, time.Since(start).Seconds(), rep.Output)
		// Degraded searches still produce valid (if pessimistic) numbers;
		// surface them on stderr so table consumers notice.
		for _, note := range rep.Notes {
			fmt.Fprintf(os.Stderr, "experiments: %s: %s\n", id, note)
		}
	}
	return nil
}
