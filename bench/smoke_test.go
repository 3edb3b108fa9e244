package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDaemon builds cmd/transfusiond into dir.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "transfusiond")
	out, err := exec.Command("go", "build", "-o", bin, "github.com/fusedmindlab/transfusion/cmd/transfusiond").CombinedOutput()
	if err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	return bin
}

// running lists the processes executing bin.
func running(t *testing.T, bin string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && exe == bin {
			out = append(out, p)
		}
	}
	return out
}

// leftovers lists run directories left in work.
func leftovers(t *testing.T, work string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(work, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestSmoke drives every workload, untraced and traced, at the tiny size
// against the real daemon.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	bin := buildDaemon(t, work)
	ctx := context.Background()
	c, err := loadCorpus(ctx, work, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		cfg := config{seed: 1, seconds: 500 * time.Millisecond, trace: trace, daemon: bin, work: work, sz: tinySize}
		for _, w := range workloads {
			r, err := runWorkload(ctx, cfg, w, c)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !r.correct() || r.attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d, problems %v", w.name, trace, r.attempted, r.failed, r.problems)
			}
			if len(r.metrics) == 0 {
				t.Errorf("%s (trace %v): no metrics", w.name, trace)
			}
		}
	}
	if left := leftovers(t, work); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// TestInterruptStopsDaemonsAndRemovesStores cancels a run mid-phase, as
// SIGINT does, and checks that no daemon or store survives it.
func TestInterruptStopsDaemonsAndRemovesStores(t *testing.T) {
	work := t.TempDir()
	bin := buildDaemon(t, work)
	c, err := loadCorpus(context.Background(), work, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("cluster-zipf")
	cfg := config{seed: 1, seconds: time.Minute, daemon: bin, work: work, sz: tinySize}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := runWorkload(ctx, cfg, w, c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if procs := running(t, bin); len(procs) > 0 {
		t.Errorf("daemons still running: %v", procs)
	}
	if left := leftovers(t, work); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// TestStopKillsADaemonThatIgnoresSIGTERM checks the SIGKILL fallback.
func TestStopKillsADaemonThatIgnoresSIGTERM(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "stubborn")
	if err := os.WriteFile(bin, []byte("#!/bin/sh\ntrap '' TERM\nexec sleep 60\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(bin, "127.0.0.1:1", filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the shell install its trap
	start := time.Now()
	d.stopWithin(200 * time.Millisecond)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("stop took %v", took)
	}
	if ws := d.cmd.ProcessState.String(); !strings.Contains(ws, "killed") {
		t.Errorf("daemon ended with %q, want killed", ws)
	}
}
