package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/cluster"
)

// The cluster lifecycle test drives three real daemon binaries joined by
// -peers/-self through the sharded-cache contract:
//
//	healthy   concurrent identical requests through all three replicas run
//	          exactly one tile search cluster-wide (the key's ring owner),
//	          every answer bit-identical;
//	SIGHUP    re-reading a literal -peers list is a no-op: the signalled
//	          replica keeps serving at ring generation 1;
//	SIGKILL   the owner dies without warning; surviving replicas keep
//	          serving its keys by local fallback search — no errors, and
//	          the fallbacks are visible in serve.peer.fallbacks.

// freePorts reserves n distinct loopback ports by binding them all at once,
// then releasing them. The tiny close-to-reuse race is acceptable in tests.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	listeners := make([]net.Listener, n)
	ports := make([]int, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

func TestClusterDaemonsShareOneSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	ports := freePorts(t, 3)
	urls := make([]string, 3)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	peers := strings.Join(urls, ",")

	daemons := make([]*daemon, 3)
	for i := range daemons {
		daemons[i] = startDaemon(t,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-self", urls[i],
			"-peers", peers,
			"-peer-timeout", "5s")
	}

	// The test computes ownership with the same ring the daemons build from
	// -peers, so it can name the one replica allowed to search.
	ring, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	specFor := func(ownerIdx int) (string, string) {
		for seq := 256; seq <= 64*1024; seq += 256 {
			key := transfusion.RunSpec{
				Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 4,
			}.CanonicalKey()
			if ring.Owner(key) == urls[ownerIdx] {
				return fmt.Sprintf(`{"arch":"edge","model":"bert","seq_len":%d,"system":"transfusion","search_budget":4}`, seq), key
			}
		}
		t.Fatalf("no spec owned by replica %d", ownerIdx)
		return "", ""
	}

	body, key := specFor(0)

	// Concurrent identical requests through every replica.
	type outcome struct {
		status int
		body   string
		err    error
	}
	const perReplica = 3
	outcomes := make(chan outcome, perReplica*3)
	var wg sync.WaitGroup
	for i := range daemons {
		for j := 0; j < perReplica; j++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
				if err != nil {
					outcomes <- outcome{err: err}
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				outcomes <- outcome{status: resp.StatusCode, body: string(data)}
			}(daemons[i].url)
		}
	}
	wg.Wait()
	close(outcomes)
	for o := range outcomes {
		if o.err != nil {
			t.Fatalf("request failed: %v", o.err)
		}
		if o.status != http.StatusOK {
			t.Fatalf("status %d: %s", o.status, o.body)
		}
	}

	// Exactly one search, and it ran on the ring's owner.
	var searches int64
	for i, d := range daemons {
		n := d.metric(t, "tileseek.searches")
		searches += n
		if n > 0 && urls[i] != ring.Owner(key) {
			t.Fatalf("replica %d searched but does not own %s", i, key)
		}
	}
	if searches != 1 {
		t.Fatalf("cluster ran %d searches, want exactly 1", searches)
	}

	// Every replica answers the identical result once warm.
	ref, _ := daemons[0].plan(t, body)
	for i, d := range daemons {
		got, _ := d.plan(t, body)
		if !reflect.DeepEqual(got.Result, ref.Result) {
			t.Fatalf("replica %d diverged:\ngot  %+v\nwant %+v", i, got.Result, ref.Result)
		}
	}

	// SIGHUP re-reads the literal -peers list: the replica survives the
	// signal and the unchanged member set neither rebuilds the ring nor
	// bumps its generation.
	if err := daemons[1].cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	daemons[1].plan(t, body) // plan() fails the test on any non-200
	if g := daemons[1].metric(t, "cluster.ring.generation"); g != 1 {
		t.Fatalf("SIGHUP on a literal -peers list moved generation to %d, want 1", g)
	}

	// SIGKILL replica 2 and request one of its keys through the survivors:
	// service continues by local fallback, never an error.
	victimBody, _ := specFor(2)
	if err := daemons[2].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemons[2].cmd.Wait() //nolint:errcheck

	for _, i := range []int{0, 1} {
		got, source := daemons[i].plan(t, victimBody)
		if source == "peer" {
			t.Fatalf("replica %d claims a peer answer from a SIGKILLed owner", i)
		}
		if got.Result.Plan == nil {
			t.Fatalf("replica %d fallback returned no plan", i)
		}
	}
	if fb := daemons[0].metric(t, "serve.peer.fallbacks"); fb < 1 {
		t.Fatalf("serve.peer.fallbacks = %d, want >= 1 after owner death", fb)
	}
	// Survivors answer bit-identically to each other for the fallen owner's
	// key (each searched locally — duplicated work, not divergent results).
	a, _ := daemons[0].plan(t, victimBody)
	b, _ := daemons[1].plan(t, victimBody)
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("survivors diverged on the dead owner's key")
	}
}
