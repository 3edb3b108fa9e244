package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/fusedmindlab/transfusion"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// result is one workload's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	// problems says why the run is not correct; empty when it is.
	problems []string
	metrics  []metric
	// notes are extra report lines that are not metrics.
	notes []string
	tr    *tracer
}

func (r result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.fail != "" {
			n++
		}
	}
	return n
}

func countOK(ss []sample) int { return len(ss) - failures(ss) }

// firstFailures describes up to three wrong answers.
func firstFailures(ss []sample) []string {
	var out []string
	for _, s := range ss {
		if s.fail != "" && len(out) < 3 {
			out = append(out, fmt.Sprintf("request %d: %s", s.pos, s.fail))
		}
	}
	return out
}

// latenciesMS returns the sorted latencies of the successful samples.
func latenciesMS(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.fail == "" {
			out = append(out, ms(s.latency))
		}
	}
	return sorted(out)
}

// plansPerS is successful plans per second of ph's wall time.
func plansPerS(ph phase) float64 { return float64(countOK(ph.samples)) / ph.wall.Seconds() }

// endToEnd computes the metrics a user of the service sees.
func endToEnd(setups []float64, m *phaseRun) []metric {
	ok := countOK(m.ph.samples)
	lat := latenciesMS(m.ph.samples)
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"plans_per_s", plansPerS(m.ph), "1/s", ok},
		{"latency_p50_ms", percentile(lat, 50), "ms", len(lat)},
		{"cpu_ms_per_plan", ms(m.after.cpu-m.before.cpu) / float64(ok), "ms", ok},
		{"rss_mb", median(m.rss) / (1 << 20), "MB", len(m.rss)},
	}
}

// tailNotes reports the latency tail when the sample supports it: p99
// where a run answers thousands of requests, p90 where it answers dozens.
func tailNotes(w workload, m *phaseRun) []string {
	lat := latenciesMS(m.ph.samples)
	p := 90.0
	if w.zipf {
		p = 99
	}
	if v, ok := tail(lat, p); ok {
		return []string{fmt.Sprintf("latency_p%g_ms %v ms n=%d", p, v, len(lat))}
	}
	return []string{fmt.Sprintf("latency_p%g_ms not reported: %d samples leave fewer than %d above it", p, len(lat), minBeyond)}
}

// layerMetrics computes the per-layer metrics of a traced run m: the serve,
// cluster and tileseek counters from its phase, then an in-process replay of
// the store, cluster and search layers on the workload's inputs. untraced
// is the same phase run without spans.
func layerMetrics(ctx context.Context, cfg config, w workload, c *corpus, in *inputs, untraced phase, m *phaseRun, dir string, res *result) error {
	ph := m.ph
	ok := float64(countOK(ph.samples))
	d := func(name string) float64 { return float64(delta(m.before, m.after, name)) }

	var server, transport []float64
	bySource := make(map[string][]float64)
	for _, s := range ph.samples {
		if s.fail == "" {
			server = append(server, s.elapsed)
			transport = append(transport, ms(s.latency)-s.elapsed)
			bySource[s.source] = append(bySource[s.source], ms(s.latency))
		}
	}
	share := func(srcs ...string) float64 {
		n := 0
		for _, s := range srcs {
			n += len(bySource[s])
		}
		return float64(n) / ok
	}
	var sources []string
	for s := range bySource {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	for _, s := range sources {
		lat := sorted(bySource[s])
		line := fmt.Sprintf("serve.%s.p50_ms %v ms n=%d", s, percentile(lat, 50), len(lat))
		if v, ok := tail(lat, 99); ok {
			line += fmt.Sprintf("; p99_ms %v", v)
		}
		res.notes = append(res.notes, line)
	}
	plain, traced := plansPerS(untraced), plansPerS(ph)
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: plans_per_s untraced %v, traced %v, ratio %v", plain, traced, plain/traced))

	// Replay inputs: the traced requests in sequence order.
	all := append([]sample(nil), ph.samples...)
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	var reqKeys []string
	var puts []keyResult
	seen := make(map[string]bool)
	var st searchReplay
	for _, s := range all {
		req, _ := in.next(s.pos)
		if s.fail != "" || seen[req.key] {
			continue
		}
		seen[req.key] = true
		reqKeys = append(reqKeys, req.key)
		var r transfusion.RunResult
		switch {
		case w.zipf:
			r = c.res[req.key]
		case s.result != nil:
			if err := json.Unmarshal(s.result, &r); err != nil {
				return err
			}
		default:
			continue
		}
		puts = append(puts, keyResult{req.key, r})
		if req.spec.System != "transfusion" || st.specs >= cfg.sz.replays {
			continue
		}
		var hint *transfusion.PlanSummary
		if req.hint != "" {
			hint = c.res[req.hint].Plan
		}
		if err := replaySearch(ctx, m.tr, req, s.pos, hint, r.Tile, &st); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.problems = append(res.problems, err.Error())
		}
	}
	if st.specs == 0 {
		return fmt.Errorf("no transfusion plan among the %d measured answers to replay", len(all))
	}
	var getKeys []string
	if w.zipf {
		getKeys = reqKeys
	}
	sr, err := replayStore(ctx, m.tr, c, filepath.Join(dir, "replay-store"), reqKeys, getKeys, puts)
	if err != nil {
		return err
	}
	owner, err := ownerNS(reqKeys)
	if err != nil {
		return err
	}

	var selfMS, evalMS, dpipeMS []float64
	evalTotal, replayTotal := 0.0, 0.0
	for _, s := range m.tr.named("tileseek.search") {
		selfMS = append(selfMS, ms(m.tr.selfTime(s)))
	}
	for _, s := range m.tr.named("pipeline.eval") {
		evalMS = append(evalMS, ms(s.dur()))
		evalTotal += ms(s.dur())
	}
	for _, s := range m.tr.named("replay") {
		replayTotal += ms(s.dur())
	}
	for _, s := range m.tr.named("dpipe.plan") {
		dpipeMS = append(dpipeMS, ms(s.dur()))
	}
	specs := float64(st.specs)
	get := sorted(sr.getUS)
	getP99, _ := tail(get, 99)
	n := len(ph.samples)
	res.metrics = []metric{
		{"serve.server_mean_ms", mean(server), "ms", len(server)},
		{"serve.transport_p50_ms", median(transport), "ms", len(transport)},
		{"serve.memory_share", share("memory"), "ratio", n},
		{"serve.disk_share", share("disk"), "ratio", n},
		{"serve.peer_share", share("peer"), "ratio", n},
		{"serve.search_share", share("search", "warm-search"), "ratio", n},
		{"serve.cache_hit_ratio", ratio(d("serve.cache_hits"), d("serve.cache_hits")+d("serve.cache_misses")), "ratio", n},
		{"store.open_ms", median(sr.openMS), "ms", len(sr.openMS)},
		{"store.get.p50_us", percentile(get, 50), "us", len(get)},
		{"store.get.p99_us", getP99, "us", len(get)},
		{"store.nearest.p50_us", median(sr.nearestUS), "us", len(sr.nearestUS)},
		{"store.put.p50_ms", median(sr.putMS), "ms", len(sr.putMS)},
		{"cluster.owner_ns", owner, "ns", len(reqKeys)},
		{"cluster.peer.forwards_per_plan", d("serve.peer.forwards") / ok, "count", n},
		{"cluster.peer.hit_ratio", ratio(d("serve.peer.hits"), d("serve.peer.forwards")), "ratio", n},
		{"api.run_ms", median(st.runMS), "ms", st.specs},
		{"api.allocs_per_plan", float64(st.allocs) / specs, "count", st.specs},
		{"tileseek.self_ms_per_plan", mean(selfMS), "ms", len(selfMS)},
		{"tileseek.objective_calls_per_plan", float64(st.objCalls) / specs, "count", st.specs},
		{"tileseek.memo_hit_ratio", ratio(d("tileseek.cache_hits"), d("tileseek.cache_hits")+d("tileseek.cache_misses")), "ratio", n},
		{"tileseek.spec_evals_per_plan", d("tileseek.spec_evals") / ok, "count", n},
		{"pipeline.eval_ms", median(evalMS), "ms", len(evalMS)},
		{"pipeline.eval_share", ratio(evalTotal, replayTotal), "ratio", len(evalMS)},
		{"dpipe.plan_ms", median(dpipeMS), "ms", len(dpipeMS)},
		{"dpipe.dp_cells_per_eval", ratio(float64(st.cells), float64(st.plans)), "count", int(st.plans)},
		{"dpipe.candidates_per_plan", ratio(float64(st.cands), float64(st.plans)), "count", int(st.plans)},
		{"perf.cycles_ns", st.cyclesNS / specs, "ns", st.specs},
		{"perf.cycles_allocs", st.cyclesAlc / specs, "count", st.specs},
	}
	return nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
