package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric as "workload metric value unit n=<samples>",
// the notes and problems, then the summary line. With several workloads the
// summary's metric names are prefixed "workload/".
func report(w io.Writer, results []result, prefixed bool) error {
	sum := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range results {
		for _, m := range r.metrics {
			fmt.Fprintf(w, "%s %s %v %s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
			name := m.name
			if prefixed {
				name = r.workload + "/" + name
			}
			sum.Metrics[name] = metricValue{m.value, m.unit}
		}
		for _, n := range r.notes {
			fmt.Fprintf(w, "%s %s\n", r.workload, n)
		}
		for _, p := range r.problems {
			fmt.Fprintf(w, "%s WRONG %s\n", r.workload, p)
		}
		fmt.Fprintf(w, "%s attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
		sum.Correct = sum.Correct && r.correct()
		sum.Attempted += r.attempted
		sum.Failed += r.failed
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeSpans saves every workload's spans, keyed by workload.
func writeSpans(path string, results []result) error {
	all := make(map[string][]span)
	for _, r := range results {
		r.tr.mu.Lock()
		all[r.workload] = r.tr.spans
		r.tr.mu.Unlock()
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// declared is a metric's entry in BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// provenance records where and how the numbers were taken: a result is only
// comparable with one from the same host and settings.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
}

type outMetric struct {
	declared
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

type outResult struct {
	Workload  string      `json:"workload"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   []outMetric `json:"metrics"`
	Notes     []string    `json:"notes,omitempty"`
}

// writeOut saves the results with their provenance, copying each metric's
// bound and direction from BENCHMARK.json in the working directory.
func writeOut(path string, cfg config, results []result) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	decl := make(map[string]declared)
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		decl[d.Name] = d
	}
	out := struct {
		Provenance provenance  `json:"provenance"`
		Results    []outResult `json:"results"`
	}{Provenance: provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}}
	for _, r := range results {
		or := outResult{Workload: r.workload, Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Notes: r.notes}
		for _, m := range r.metrics {
			d, ok := decl[m.name]
			if !ok {
				return fmt.Errorf("metric %s is not declared in BENCHMARK.json", m.name)
			}
			or.Metrics = append(or.Metrics, outMetric{declared: d, Value: m.value, N: m.n})
		}
		out.Results = append(out.Results, or)
	}
	data, err = json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unavailable" outside a git
// work tree; the search for one stops at the working directory.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unavailable"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}
