package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The membership-churn test drives real daemon processes through a live
// reconfiguration: three replicas share one peers file (-peers <path>); the
// file is edited to drop one replica and admit a newly started one; SIGHUP
// makes the survivors reload it; the dropped replica is then SIGKILLed.
// Throughout, every request on a current member answers 200, the survivors'
// ring generation bumps exactly once (back-to-back identical SIGHUPs
// coalesce), and the membership gauges track the new three-member set.
func TestDaemonPeersFileMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	ports := freePorts(t, 4)
	urls := make([]string, 4)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}

	peersFile := filepath.Join(t.TempDir(), "peers.txt")
	writePeers := func(members ...string) {
		t.Helper()
		body := "# transfusiond membership\n" + strings.Join(members, "\n") + "\n"
		if err := os.WriteFile(peersFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePeers(urls[0], urls[1], urls[2])

	boot := func(i int) *daemon {
		return startDaemon(t,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-self", urls[i],
			"-peers", peersFile,
			"-peer-timeout", "5s",
			"-probe-interval", "50ms")
	}
	daemons := make([]*daemon, 3)
	for i := range daemons {
		daemons[i] = boot(i)
	}

	const body = `{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":4}`
	for _, d := range daemons {
		d.plan(t, body) // plan() fails the test on any non-200
	}
	for i, d := range daemons {
		if g := d.metric(t, "cluster.ring.generation"); g != 1 {
			t.Fatalf("daemon %d boots at generation %d, want 1", i, g)
		}
	}

	// Churn: the peers file drops replica 2 and admits replica 3, which
	// boots against the new file; the incumbents learn via SIGHUP.
	writePeers(urls[0], urls[1], urls[3])
	joiner := boot(3)
	for _, d := range daemons[:2] {
		if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	waitGen := func(d *daemon, want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for d.metric(t, "cluster.ring.generation") != want {
			if time.Now().After(deadline) {
				t.Fatalf("generation never reached %d; stderr:\n%s", want, d.stderr.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	for _, d := range daemons[:2] {
		waitGen(d, 2)
	}

	// Two more SIGHUPs with the unchanged file must coalesce: no rebuild,
	// no generation bump.
	for i := 0; i < 2; i++ {
		if err := daemons[0].cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if g := daemons[0].metric(t, "cluster.ring.generation"); g != 2 {
		t.Fatalf("identical SIGHUPs bumped generation to %d, want 2", g)
	}

	// The dropped replica dies for real. Current members keep answering —
	// the removed corpse costs nobody anything.
	if err := daemons[2].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemons[2].cmd.Wait() //nolint:errcheck

	for _, d := range []*daemon{daemons[0], daemons[1], joiner} {
		d.plan(t, body)
		d.plan(t, `{"arch":"edge","model":"bert","seq_len":2048,"system":"transfusion","search_budget":4}`)
	}
	if alive := daemons[0].metric(t, "cluster.member.alive"); alive != 3 {
		t.Fatalf("cluster.member.alive = %d after churn, want 3", alive)
	}
	if dead := daemons[0].metric(t, "cluster.member.dead"); dead != 0 {
		t.Fatalf("cluster.member.dead = %d after churn, want 0", dead)
	}
}
