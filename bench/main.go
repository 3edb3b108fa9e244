// Command bench is the end-to-end benchmark of the TransFusion plan
// service. It builds nothing itself: bench/run.sh builds it and
// cmd/transfusiond, then runs it from the repository root. For each
// workload it boots the daemon as a subprocess on loopback (from a copy of a
// template plan store where the workload needs one), drives it closed-loop
// over keep-alive connections, checks every answer, and prints each metric
// as "workload metric value unit n=<samples>", then one JSON summary line.
// With -trace 1 it instead reports per-layer metrics: a traced rerun of the
// HTTP phase plus an in-process replay of the layers on the same inputs.
// See bench/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/fusedmindlab/transfusion/internal/cluster"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	daemon  string
	work    string
	sz      size
}

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "workload to run: cold-search, near-miss, hot-zipf or cluster-zipf (empty runs all four)")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	daemonBin := flag.String("daemon", "", "transfusiond binary to benchmark")
	work := flag.String("work", ".bench_build", "directory for the corpus, daemon stores and logs")
	out := flag.String("out", "", "also write the results, with provenance and each metric's bound, as JSON to this file")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	flag.Parse()

	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		daemon: *daemonBin, work: *work, sz: fullSize}
	var wls []workload
	if *wl == "" {
		wls = workloads
	} else {
		w, err := workloadByName(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		wls = []workload{w}
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	case cfg.daemon == "":
		fmt.Fprintln(os.Stderr, "bench: -daemon is required (run the benchmark through bench/run.sh)")
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := runAll(ctx, cfg, wls)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := report(os.Stdout, results, len(wls) > 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.trace && *spans != "" {
		if err := writeSpans(*spans, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeOut(*out, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return exitCode(results)
}

// exitCode is 0 only when every workload passed every check.
func exitCode(results []result) int {
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// runAll loads the corpus and runs each workload in turn.
func runAll(ctx context.Context, cfg config, wls []workload) ([]result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	c, err := loadCorpus(ctx, cfg.work, cfg.sz)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var results []result
	for _, w := range wls {
		r, err := runWorkload(ctx, cfg, w, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// runWorkload measures w and checks every answer. Untraced, it boots the
// fleet sz.boots times for setup_s and measures the last boot. Traced, it
// measures two fresh boots on the same inputs for half the time each:
// untraced, then with a client span per request, so the pair gives the
// tracing overhead and the traced half the per-layer serve metrics.
func runWorkload(ctx context.Context, cfg config, w workload, c *corpus) (result, error) {
	res := result{workload: w.name}
	in := genInputs(w, cfg.seed, cfg.sz)
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}

	var runs []*phaseRun
	var setups []float64
	if cfg.trace {
		for _, tr := range []*tracer{nil, newTracer()} {
			r, err := runPhase(ctx, cfg, w, c, &in, filepath.Join(dir, fmt.Sprint("boot-", len(runs))), probe, cfg.seconds/2, tr)
			if err != nil {
				return res, err
			}
			runs = append(runs, r)
		}
	} else {
		for b := 0; b < cfg.sz.boots-1; b++ {
			bootDir := filepath.Join(dir, fmt.Sprint("boot-", b))
			fl, took, err := bootFleet(ctx, cfg, w, c, bootDir, probe)
			if err != nil {
				return res, err
			}
			fl.stop()
			os.RemoveAll(bootDir) //nolint:errcheck // disk space only
			setups = append(setups, took.Seconds())
		}
		r, err := runPhase(ctx, cfg, w, c, &in, filepath.Join(dir, "measured"), probe, cfg.seconds, nil)
		if err != nil {
			return res, err
		}
		runs = append(runs, r)
		setups = append(setups, r.setup.Seconds())
	}

	var all []sample
	for _, r := range runs {
		all = append(all, r.ph.samples...)
		if r.warmFailed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d warm-up answers wrong", r.warmFailed))
		}
		if n := delta(r.start, r.after, "tileseek.searches"); w.zipf && n != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d tile searches ran; a Zipf workload must run none", n))
		}
	}
	if !w.zipf {
		if err := verifyReferences(ctx, &in, all, c); err != nil {
			return res, err
		}
	}
	res.attempted, res.failed = len(all), failures(all)
	res.problems = append(res.problems, firstFailures(all)...)
	m := runs[len(runs)-1]
	if countOK(m.ph.samples) == 0 {
		return res, errors.New("no request succeeded")
	}
	if !cfg.trace {
		res.metrics = endToEnd(setups, m)
		res.notes = tailNotes(w, m)
		return res, nil
	}
	res.tr = m.tr
	return res, layerMetrics(ctx, cfg, w, c, &in, runs[0].ph, m, dir, &res)
}

// phaseRun is one boot of the fleet driven through one measured phase.
type phaseRun struct {
	setup time.Duration
	ph    phase
	// start is taken after boot; before and after enclose ph.
	start, before, after snapshot
	// rss samples the resident set during ph, summed over replicas.
	rss        []float64
	warmFailed int
	tr         *tracer
}

// runPhase boots a fresh fleet in dir, sends the workload's untimed warm-up,
// then drives the request sequence from its start for dur, recording a span
// per request when tr is non-nil. The fleet is stopped before it returns.
func runPhase(ctx context.Context, cfg config, w workload, c *corpus, in *inputs, dir string, probe *http.Client, dur time.Duration, tr *tracer) (*phaseRun, error) {
	fl, took, err := bootFleet(ctx, cfg, w, c, dir, probe)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	r := &phaseRun{setup: took, tr: tr}
	clients := min(w.clients, runtime.NumCPU())
	gen := newLoadgen(fl.urls(), clients, in, &checker{sources: w.sources, want: wantFor(w, c)}, !w.zipf)
	defer gen.close()
	if r.start, err = fl.snapshot(ctx, probe); err != nil {
		return nil, err
	}
	if n := cfg.sz.warmup[w.name]; n > 0 {
		warm, err := gen.run(ctx, clients, int64(n), 0, nil)
		if err != nil {
			return nil, err
		}
		r.warmFailed = failures(warm.samples)
	}
	if r.before, err = fl.snapshot(ctx, probe); err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rss := fl.sampleRSS(stopRSS)
	r.ph, err = gen.run(ctx, clients, 0, dur, tr)
	close(stopRSS)
	r.rss = <-rss
	if err != nil {
		return nil, err
	}
	if r.after, err = fl.snapshot(ctx, probe); err != nil {
		return nil, err
	}
	return r, nil
}

// wantFor returns the expected answer per key for workloads checked against
// the corpus.
func wantFor(w workload, c *corpus) map[string][]byte {
	if w.zipf {
		return c.want
	}
	return nil
}

// bootFleet copies each replica's store (untimed), then execs every replica
// and waits until all answer /readyz; the returned duration is the time from
// the first exec until then.
func bootFleet(ctx context.Context, cfg config, w workload, c *corpus, dir string, probe *http.Client) (fleet, time.Duration, error) {
	var urls []string
	var ring *cluster.Cluster
	if w.replicas > 1 {
		urls = clusterURLs(w.replicas)
		var err error
		if ring, err = cluster.New(cluster.Config{Self: urls[0], Peers: urls}); err != nil {
			return nil, 0, err
		}
	} else {
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		urls = []string{"http://" + a}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	flags := make([][]string, w.replicas)
	for i := range flags {
		if w.store {
			sd := filepath.Join(dir, fmt.Sprintf("store-%d", i))
			own := func(k string) bool { return ring == nil || ring.Owner(k) == urls[i] }
			if err := c.copyTo(sd, own); err != nil {
				return nil, 0, err
			}
			flags[i] = append(flags[i], "-store-dir", sd)
		}
		if w.cacheEntries > 0 {
			flags[i] = append(flags[i], "-cache-entries", strconv.Itoa(w.cacheEntries))
		}
		if ring != nil {
			flags[i] = append(flags[i], "-peers", strings.Join(urls, ","), "-self", urls[i])
		}
	}
	var fl fleet
	start := time.Now()
	for i, u := range urls {
		d, err := startDaemon(cfg.daemon, strings.TrimPrefix(u, "http://"), filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i)), flags[i]...)
		if err != nil {
			fl.stop()
			return nil, 0, err
		}
		fl = append(fl, d)
	}
	if err := waitReady(ctx, probe, fl); err != nil {
		fl.stop()
		return nil, 0, err
	}
	return fl, time.Since(start), nil
}
