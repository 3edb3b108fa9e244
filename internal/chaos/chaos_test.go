package chaos

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

func TestMain(m *testing.M) { os.Exit(LeakCheckMain(m, 5*time.Second)) }

func mustNew(t *testing.T, seed uint64, cfgs ...SiteConfig) *Injector {
	t.Helper()
	in, err := New(seed, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEverySchedule(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "x", Kind: KindError, Every: 3})
	ctx := With(context.Background(), in)
	site := SiteFrom(ctx, "x")
	var fired []int
	for i := 1; i <= 9; i++ {
		if err := site.Strike(ctx); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error %v does not match ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("every=3 fired on hits %v, want [3 6 9]", fired)
	}
	if site.Hits() != 9 || site.Fires() != 3 {
		t.Fatalf("hits=%d fires=%d, want 9/3", site.Hits(), site.Fires())
	}
}

func TestAfterAndLimit(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "x", Kind: KindError, Every: 1, After: 2, Limit: 2})
	site := in.Site("x")
	ctx := context.Background()
	var fired []int
	for i := 1; i <= 6; i++ {
		if site.Strike(ctx) != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("after=2 limit=2 fired on hits %v, want [3 4]", fired)
	}
	if site.Fires() != 2 {
		t.Fatalf("fires=%d, want 2 (limit)", site.Fires())
	}
}

func TestProbabilityDeterministicForSeed(t *testing.T) {
	run := func(seed uint64) []int64 {
		in := mustNew(t, seed, SiteConfig{Site: "p", Kind: KindError, P: 0.3})
		site := in.Site("p")
		var fired []int64
		for i := int64(1); i <= 200; i++ {
			if site.Strike(context.Background()) != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times — schedule degenerate", len(a))
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	if c := run(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the identical schedule")
		}
	}
}

func TestCancelKindMatchesTaxonomy(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "c", Kind: KindCancel, Every: 1})
	err := in.Site("c").Strike(context.Background())
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("cancel error %v does not match faults.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error %v does not match context.Canceled", err)
	}
}

func TestShortWriteKindMatchesSentinels(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "store.write", Kind: KindShortWrite, Every: 1})
	err := in.Site("store.write").Strike(context.Background())
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("shortwrite error %v does not match ErrShortWrite", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("shortwrite error %v does not match ErrInjected", err)
	}

	// The Parse grammar spells it "shortwrite", like Kind.String does.
	parsed, perr := Parse("store.write=shortwrite@every=2", 1)
	if perr != nil {
		t.Fatal(perr)
	}
	s := parsed.Site(SiteStoreWrite)
	if s == nil || s.cfg.Kind != KindShortWrite || s.cfg.Every != 2 {
		t.Fatalf("shortwrite clause misparsed: %+v", s)
	}
	if got := KindShortWrite.String(); got != "shortwrite" {
		t.Fatalf("KindShortWrite.String() = %q", got)
	}
}

func TestPanicKind(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "boom", Kind: KindPanic, Every: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic injected")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value %v does not name the site", r)
		}
	}()
	in.Site("boom").Strike(context.Background()) //nolint:errcheck
}

func TestLatencyKindSleepsAndHonorsContext(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "slow", Kind: KindLatency, Latency: 20 * time.Millisecond, Every: 1})
	start := time.Now()
	if err := in.Site("slow").Strike(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency strike returned after %v, want >= ~20ms", d)
	}

	in2 := mustNew(t, 1, SiteConfig{Site: "slow", Kind: KindLatency, Latency: 10 * time.Second, Every: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	err := in2.Site("slow").Strike(ctx)
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("mid-sleep cancellation returned %v, want ErrCanceled match", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled latency strike still slept %v", d)
	}
}

func TestParseGrammar(t *testing.T) {
	in, err := Parse("serve.cache.leader=panic@every=3;tileseek.rollout=latency:2ms@p=0.25@limit=10;dpipe.candidate=cancel@after=5", 7)
	if err != nil {
		t.Fatal(err)
	}
	lead := in.Site(SiteServeCacheLeader)
	if lead == nil || lead.cfg.Kind != KindPanic || lead.cfg.Every != 3 {
		t.Fatalf("leader site misparsed: %+v", lead)
	}
	roll := in.Site(SiteTileseekRollout)
	if roll == nil || roll.cfg.Kind != KindLatency || roll.cfg.Latency != 2*time.Millisecond ||
		roll.cfg.P != 0.25 || roll.cfg.Limit != 10 {
		t.Fatalf("rollout site misparsed: %+v", roll.cfg)
	}
	cand := in.Site(SiteDPipeCandidate)
	if cand == nil || cand.cfg.Kind != KindCancel || cand.cfg.After != 5 || cand.cfg.Every != 1 {
		t.Fatalf("candidate site misparsed: %+v", cand.cfg)
	}
	if in.Site("unarmed") != nil {
		t.Fatal("unarmed site resolved non-nil")
	}
	if s := in.String(); !strings.Contains(s, "seed=7") || !strings.Contains(s, "panic@every=3") {
		t.Fatalf("summary %q missing fields", s)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"nosite",                  // no '='
		"x=explode",               // unknown kind
		"x=latency",               // latency without duration
		"x=latency:fast",          // bad duration
		"x=error:arg",             // argument on argless kind
		"x=error@every=two",       // bad int
		"x=error@p=1.5",           // probability out of range
		"x=error@huh=1",           // unknown modifier
		"x=error;x=panic",         // duplicate site
		"x=error@every=-1",        // negative schedule
		"x=latency:-5ms@every=1",  // non-positive latency
		"x=error@p=0.5@every=bad", // bad modifier after good
		"=error",                  // empty site
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
	if in, err := Parse("  ", 1); err != nil || in != nil {
		t.Fatalf("empty spec: (%v, %v), want (nil, nil)", in, err)
	}
}

// The acceptance-criteria guard: with injection unconfigured, the chaos hooks
// on a hot path — a context lookup plus a Strike on the resulting nil site —
// add zero allocations.
func TestHooksZeroAllocUnconfigured(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		site := SiteFrom(ctx, SiteTileseekRollout)
		if err := site.Strike(ctx); err != nil {
			t.Fatal("unconfigured site fired")
		}
	}); n != 0 {
		t.Fatalf("unconfigured chaos hook allocates %v per run, want 0", n)
	}

	// The same holds on a context that carries unrelated values above the
	// (absent) injector.
	deep := context.WithValue(context.WithValue(ctx, dummyKey{}, 1), dummyKey2{}, 2)
	if n := testing.AllocsPerRun(1000, func() {
		if err := SiteFrom(deep, SiteDPipeCandidate).Strike(deep); err != nil {
			t.Fatal("unconfigured site fired")
		}
	}); n != 0 {
		t.Fatalf("unconfigured chaos hook allocates %v per run on a deep context, want 0", n)
	}
}

type (
	dummyKey  struct{}
	dummyKey2 struct{}
)

// A site that never fires (armed but scheduled away) must not inject.
func TestArmedButColdSiteNeverFires(t *testing.T) {
	in := mustNew(t, 1, SiteConfig{Site: "x", Kind: KindError, Every: 1000})
	site := in.Site("x")
	for i := 0; i < 999; i++ {
		if err := site.Strike(context.Background()); err != nil {
			t.Fatalf("hit %d fired before schedule", i+1)
		}
	}
}

func TestCheckLeaksFlagsAndClears(t *testing.T) {
	stop := make(chan struct{})
	go func() { <-stop }()
	if err := CheckLeaks(100 * time.Millisecond); err == nil {
		t.Fatal("CheckLeaks missed a parked goroutine")
	} else if !strings.Contains(err.Error(), "leaked goroutine") {
		t.Fatalf("unexpected leak error: %v", err)
	}
	close(stop)
	if err := CheckLeaks(2 * time.Second); err != nil {
		t.Fatalf("CheckLeaks still failing after goroutine exit: %v", err)
	}
}
