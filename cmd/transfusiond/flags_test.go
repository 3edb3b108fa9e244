package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// daemonFlags is the daemon's whole configuration surface, sorted. Adding or
// removing a knob has to edit this list, so every change to the surface
// shows up in review.
var daemonFlags = []string{
	"addr",
	"cache-entries",
	"chaos",
	"chaos-seed",
	"debug-addr",
	"drain-timeout",
	"log-json",
	"log-level",
	"max-budget",
	"max-concurrent",
	"max-queue",
	"max-seq",
	"peer-timeout",
	"peers",
	"probe-interval",
	"ready-delay",
	"reduced-budget",
	"request-timeout",
	"self",
	"store-dir",
	"store-max-bytes",
	"store-warm",
	"trace-ring",
	"trace-slow",
	"warm-grid",
	"watchdog",
}

func TestDaemonFlagSurface(t *testing.T) {
	out, err := exec.Command(daemonBinary(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("transfusiond -h: %v\n%s", err, out)
	}
	// flag.PrintDefaults puts each flag on its own line as "  -name ...";
	// help text continues on lines indented by a tab.
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if !slices.IsSorted(daemonFlags) {
		t.Fatal("daemonFlags must stay sorted")
	}
	if !slices.Equal(got, daemonFlags) {
		t.Fatalf("transfusiond -h lists %d flags, want %d:\ngot  %v\nwant %v", len(got), len(daemonFlags), got, daemonFlags)
	}
}
