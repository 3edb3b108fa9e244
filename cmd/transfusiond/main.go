// Command transfusiond serves the TransFusion analytical model over HTTP:
// plan evaluations (POST /v1/plan), five-system comparisons (POST
// /v1/compare), liveness (GET /healthz), readiness (GET /readyz), metrics
// (GET /metrics, JSON / plain text / Prometheus under content negotiation),
// DPipe schedule traces (GET /debug/trace), and request traces (GET
// /debug/requests: recent, in-flight, and tail-sampled span trees; ?id= for
// one trace, &format=chrome for a Perfetto-loadable export). Every response
// carries X-Trace-Id; inbound W3C traceparent headers are adopted. Identical
// requests are answered from an LRU plan cache with singleflight coalescing.
// Overload steps requests down a degradation ladder (reduced search budget,
// then heuristic-tile-only) before shedding with 503 + a computed
// Retry-After; a watchdog converts stuck evaluations into degraded answers.
// SIGTERM flips /readyz to draining, waits -ready-delay, then drains
// in-flight plans before exiting. With -store-dir, completed plans are
// persisted to a crash-safe disk store and a restarted daemon warm-starts
// from them (X-Plan-Source reports which tier answered). A request missing
// both cache tiers is warm-started from the nearest stored plan of the same
// workload family (X-Plan-Source: warm-search), and -warm-grid precomputes
// plans for gaps in the stored seq-length grid at boot. With -peers/-self,
// replicas shard the plan-key space over a consistent-hash ring: a replica
// that misses locally fetches from the key's owner (X-Plan-Source: peer), so
// the owner's singleflight computes each plan once cluster-wide; an
// unreachable or degraded owner falls back to a local search. POST
// /v1/plan/batch resolves many plan requests in one round trip with
// per-entry status and source. -peers takes either a comma-separated URL list
// or the path of a peers file; membership is dynamic either way: SIGHUP
// re-reads the source (a no-op for a literal list, a live reconfiguration
// for an edited file), an active prober walks unresponsive peers through
// alive -> suspect -> dead (dead members leave the ring; revived ones
// rejoin), and a key whose ownership moved is first fetched — cache-only,
// one hop — from its previous owner before being re-searched.
//
// Usage:
//
//	transfusiond -addr :8080
//	curl -s localhost:8080/v1/plan -d '{"arch":"edge","model":"bert","seq_len":4096,"system":"transfusion"}'
//
// For resilience testing, -chaos injects deterministic faults at named sites:
//
//	transfusiond -chaos 'serve.cache.leader=latency:2s@every=5' -chaos-seed 42
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/serve"
	"github.com/fusedmindlab/transfusion/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transfusiond:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 4, "maximum simultaneous evaluations")
	maxQueue := flag.Int("max-queue", 64, "maximum callers waiting for an evaluation slot before shedding with 503")
	requestTimeout := flag.Duration("request-timeout", 60*time.Second, "server-owned evaluation deadline (expiry answers 504)")
	cacheEntries := flag.Int("cache-entries", 1024, "plan cache capacity (completed results)")
	maxSeq := flag.Int("max-seq", transfusion.MaxSeqLen, "largest sequence length accepted over the API")
	maxBudget := flag.Int("max-budget", 1024, "largest per-request TileSeek rollout budget accepted")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound for in-flight plans")
	reducedBudget := flag.Int("reduced-budget", 16, "search budget cap under the degradation ladder's middle tier")
	watchdogTimeout := flag.Duration("watchdog", 0, "wait before the watchdog serves a degraded answer for a stuck evaluation (0 = half the request timeout, negative disables)")
	readyDelay := flag.Duration("ready-delay", 0, "pause between flipping /readyz to draining and closing the listener on shutdown")
	storeDir := flag.String("store-dir", "", "directory for the durable plan store (empty disables the disk tier)")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "byte budget for the plan store directory, LRU-evicted (<= 0 unlimited)")
	storeWarm := flag.Bool("store-warm", true, "seed the in-memory plan cache from the store at startup (warm restart)")
	warmGrid := flag.Bool("warm-grid", false, "precompute plans for gaps in the store's seq-length grid at startup, warm-seeded from their nearest stored neighbours (requires -store-dir; runs off the serving path)")
	peers := flag.String("peers", "", "every replica's base URL, self included: a comma-separated list (e.g. 'http://a:8080,http://b:8080') or the path of a file listing one per line (# comments allowed); re-read on SIGHUP for live membership changes (empty disables clustering)")
	self := flag.String("self", "", "this replica's own base URL, exactly as listed in -peers (required with -peers)")
	peerTimeout := flag.Duration("peer-timeout", 0, "bound on one peer plan fetch before falling back to local search (0 = default; clamped per-peer by the prober's latency EWMA)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "base gap between health probes of one peer, jittered per probe (0 disables the prober: membership stays static)")
	chaosSpec := flag.String("chaos", "", "fault-injection schedule, e.g. 'serve.cache.leader=latency:2s@every=5;serve.admission=error@p=0.01' (empty disables)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for probabilistic -chaos schedules and the probe jitter (deterministic replay)")
	logLevel := flag.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty disables; never exposed on the serving port)")
	traceRing := flag.Int("trace-ring", 64, "request traces retained for /debug/requests, recent and tail-sampled rings each (0 disables tracing entirely)")
	traceSlow := flag.Duration("trace-slow", time.Second, "latency at or above which a trace is always retained by tail sampling")
	flag.Parse()

	level, err := transfusion.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := transfusion.NewLogger(os.Stderr, level, *logJSON)

	// SIGTERM/SIGINT starts the drain: readyz flips to draining, ready-delay
	// later the listener closes, and in-flight plans get drain-timeout to
	// finish. Liveness (healthz) stays OK throughout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = transfusion.WithLogger(ctx, logger)
	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec, *chaosSeed)
		if err != nil {
			return err
		}
		ctx = chaos.With(ctx, inj)
		logger.Warn("transfusiond: fault injection armed", "schedule", *chaosSpec, "seed", *chaosSeed)
	}
	metrics := transfusion.NewMetrics()

	// Runtime health gauges (goroutines, heap, GC pauses) ride the ordinary
	// /metrics exposition; one sample every 10s is plenty for a scraper and
	// costs one ReadMemStats.
	sampler := obs.StartRuntimeSampler(metrics, 10*time.Second)
	defer sampler.Stop()

	var tracer *obs.Tracer
	if *traceRing > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:       *traceRing,
			RetainCapacity: *traceRing,
			SlowThreshold:  *traceSlow,
		})
	}

	if *debugAddr != "" {
		// pprof gets its own listener so profiling is reachable under
		// overload (it skips admission control) and is never exposed on the
		// serving address. The handlers are registered explicitly on a
		// private mux — nothing here depends on http.DefaultServeMux.
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: dmux}
		go dsrv.Serve(dl)
		defer dsrv.Close()
		logger.Info("transfusiond: debug listener up (pprof)", "addr", dl.Addr().String())
	}

	var planStore *store.Store
	if *storeDir != "" {
		// Open runs the recovery scan: checksums verified, torn temp files
		// and corrupt records quarantined (renamed aside, never deleted).
		planStore, err = store.Open(*storeDir, *storeMaxBytes, metrics)
		if err != nil {
			return err
		}
		logger.Info("transfusiond: plan store open",
			"dir", *storeDir,
			"loaded", metrics.Counter("store.loaded").Value(),
			"recovered", metrics.Counter("store.recovered").Value(),
			"quarantined", metrics.Counter("store.quarantined").Value(),
			"bytes", planStore.SizeBytes(),
			"warm", *storeWarm)
	}

	var clust *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self")
		}
		list, err := readPeers(*peers, *self)
		if err != nil {
			return err
		}
		clust, err = cluster.New(cluster.Config{
			Self:          *self,
			Peers:         list,
			FetchTimeout:  *peerTimeout,
			Metrics:       metrics,
			ProbeInterval: *probeInterval,
			ProbeSeed:     *chaosSeed,
			OnChange: func(gen uint64, members []string) {
				logger.Info("transfusiond: cluster ring rebuilt",
					"generation", gen,
					"members", strings.Join(members, ","))
			},
		})
		if err != nil {
			return err
		}
		logger.Info("transfusiond: clustering enabled",
			"self", clust.Self(),
			"members", len(clust.Members()),
			"peers", *peers)
		if *probeInterval > 0 {
			prober := clust.StartProber(ctx)
			defer prober.Stop()
		}
		// SIGHUP re-reads -peers and reconfigures the ring live. Re-reading a
		// literal list changes nothing (Reload of the identical set neither
		// rebuilds nor bumps the generation); an edited peers file applies.
		// The channel buffer of 1 coalesces back-to-back signals: a burst of
		// SIGHUPs converges on one reload of the file's final content.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
				}
				list, err := readPeers(*peers, *self)
				if err != nil {
					logger.Error("transfusiond: peers reload failed; keeping current ring", "err", err)
					continue
				}
				if err := clust.Reload(list); err != nil {
					logger.Error("transfusiond: peers reload rejected; keeping current ring", "err", err)
					continue
				}
				logger.Info("transfusiond: peers reloaded",
					"peers", len(clust.Peers()),
					"generation", clust.Generation())
			}
		}()
	}

	srv := serve.New(serve.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		RequestTimeout:  *requestTimeout,
		CacheEntries:    *cacheEntries,
		MaxSeqLen:       *maxSeq,
		MaxSearchBudget: *maxBudget,
		DrainTimeout:    *drainTimeout,
		ReducedBudget:   *reducedBudget,
		WatchdogTimeout: *watchdogTimeout,
		ReadyDelay:      *readyDelay,
		Store:           planStore,
		ColdStart:       !*storeWarm,
		Tracer:          tracer,
		Cluster:         clust,
	}, metrics, ctx)

	if *warmGrid {
		if planStore == nil {
			return fmt.Errorf("-warm-grid requires -store-dir")
		}
		go func() {
			n := srv.WarmGrid(ctx, 0)
			logger.Info("transfusiond: warm grid precompute done", "plans", n)
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("transfusiond: listening",
		"addr", l.Addr().String(),
		"max_concurrent", *maxConcurrent,
		"max_queue", *maxQueue,
		"cache_entries", *cacheEntries)
	err = srv.Serve(ctx, l)
	logger.Info("transfusiond: drained, exiting")
	return err
}

// readPeers resolves a -peers value to the member list. A value containing
// "://" is a literal comma-separated URL list; anything else is the path of
// a peers file: one URL per line, blank lines and #-comments ignored. An
// empty file is single-node mode, not an error — the file is the live
// membership source and may legitimately shrink to just this replica.
func readPeers(src, self string) ([]string, error) {
	text, sep := src, ","
	if !strings.Contains(src, "://") {
		data, err := os.ReadFile(src)
		if err != nil {
			return nil, fmt.Errorf("reading peers file: %w", err)
		}
		text, sep = string(data), "\n"
	}
	var list []string
	for _, entry := range strings.Split(text, sep) {
		entry, _, _ = strings.Cut(entry, "#")
		if entry = strings.TrimSpace(entry); entry != "" {
			list = append(list, entry)
		}
	}
	if len(list) == 0 {
		list = []string{self}
	}
	return list, nil
}
