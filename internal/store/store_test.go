package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

func testResult(seq int) transfusion.RunResult {
	return transfusion.RunResult{
		Arch: "edge", Model: "bert", System: "transfusion", SeqLen: seq, Batch: 64,
		Cycles: 1e6 + float64(seq), Seconds: 0.001, Tile: "M=64,K=128",
		LayerCycles: map[string]float64{"QKV": 1, "MHA": 2},
		DRAMBytes:   4096, TileSearchEvals: 17,
	}
}

func testKey(seq int) string {
	return transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: seq, System: "transfusion", SearchBudget: 8}.CanonicalKey()
}

func mustOpen(t *testing.T, dir string, maxBytes int64) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := Open(dir, maxBytes, reg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, reg
}

// quarantined lists the files currently set aside in the quarantine dir.
func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil {
		t.Fatalf("reading quarantine: %v", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestPutGetRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	ctx := context.Background()
	key, want := testKey(1024), testResult(1024)
	if err := s.Put(ctx, key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(ctx, key)
	if !ok {
		t.Fatal("Get missed a just-put key")
	}
	if got.Cycles != want.Cycles || got.Tile != want.Tile || got.LayerCycles["MHA"] != 2 {
		t.Fatalf("round trip mutated the result:\ngot  %+v\nwant %+v", got, want)
	}
	if s.Len() != 1 || s.SizeBytes() <= 0 {
		t.Fatalf("index after one put: len=%d bytes=%d", s.Len(), s.SizeBytes())
	}

	// A fresh Open over the same directory loads the record — the warm
	// restart path — and serves it bit-identically.
	s2, reg2 := mustOpen(t, dir, 0)
	if got := reg2.Counter("store.loaded").Value(); got != 1 {
		t.Fatalf("store.loaded after reopen = %d, want 1", got)
	}
	got2, ok := s2.Get(ctx, key)
	if !ok || got2.Cycles != want.Cycles || got2.Tile != want.Tile {
		t.Fatalf("reopened store answer (%v, %+v) diverged", ok, got2)
	}
	var warm []WarmEntry
	s2.WarmEntries(10, func(we WarmEntry) bool {
		warm = append(warm, we)
		return true
	})
	if len(warm) != 1 || warm[0].Key != key || warm[0].Result.Cycles != want.Cycles {
		t.Fatalf("WarmEntries = %+v", warm)
	}
}

func TestUnknownKeyIsCleanMiss(t *testing.T) {
	s, reg := mustOpen(t, t.TempDir(), 0)
	if _, ok := s.Get(context.Background(), "no-such-key"); ok {
		t.Fatal("hit on an empty store")
	}
	if reg.Counter("store.misses").Value() != 1 {
		t.Fatal("miss not counted")
	}
}

// Corruption anywhere in a committed record — header, payload, or checksum —
// must quarantine the file (never delete it) and degrade to a miss.
func TestCorruptRecordsQuarantinedOnReopen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset func(n int) int // byte to flip, given file length
	}{
		{"header-magic", func(n int) int { return 1 }},
		{"payload", func(n int) int { return headerSize + 3 }},
		{"checksum", func(n int) int { return n - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, 0)
			ctx := context.Background()
			key := testKey(1024)
			if err := s.Put(ctx, key, testResult(1024)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, FileName(key))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.offset(len(data))] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, reg2 := mustOpen(t, dir, 0)
			if got := reg2.Counter("store.quarantined").Value(); got != 1 {
				t.Fatalf("store.quarantined = %d, want 1", got)
			}
			if got := reg2.Counter("store.loaded").Value(); got != 0 {
				t.Fatalf("store.loaded = %d, want 0", got)
			}
			if _, ok := s2.Get(ctx, key); ok {
				t.Fatal("corrupted record served")
			}
			q := quarantined(t, dir)
			if len(q) != 1 || !strings.HasPrefix(q[0], FileName(key)) {
				t.Fatalf("quarantine contents %v, want the corrupt record set aside", q)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt record still at its live name")
			}
		})
	}
}

// A bit-rotted record discovered after boot (the boot scan saw it clean) is
// quarantined at read time.
func TestCorruptionAfterBootQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s, reg := mustOpen(t, dir, 0)
	ctx := context.Background()
	key := testKey(2048)
	if err := s.Put(ctx, key, testResult(2048)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(key))
	data, _ := os.ReadFile(path)
	data[headerSize+1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ctx, key); ok {
		t.Fatal("bit-rotted record served")
	}
	if reg.Counter("store.quarantined").Value() != 1 {
		t.Fatal("read-time corruption not quarantined")
	}
	if s.Len() != 0 {
		t.Fatal("quarantined record still indexed")
	}
	// And a later Put of the same key recovers cleanly.
	if err := s.Put(ctx, key, testResult(2048)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ctx, key); !ok {
		t.Fatal("re-put after quarantine missed")
	}
}

// Records written under a different CanonicalKey format (schema version) are
// quarantined at boot, not consulted.
func TestVersionSkewQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	ctx := context.Background()
	key := testKey(1024)
	if err := s.Put(ctx, key, testResult(1024)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(key))
	data, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(data[4:8], SchemaVersion+1)
	// Re-checksum so only the version differs — version checking must not
	// depend on the checksum tripping first.
	reencoded := append([]byte{}, data[:len(data)-checksumSize]...)
	if err := os.WriteFile(path, appendChecksum(reencoded), 0o644); err != nil {
		t.Fatal(err)
	}
	_, reg2 := mustOpen(t, dir, 0)
	if got := reg2.Counter("store.quarantined").Value(); got != 1 {
		t.Fatalf("store.quarantined = %d, want 1 (version skew)", got)
	}
	if got := reg2.Counter("store.loaded").Value(); got != 0 {
		t.Fatalf("store.loaded = %d, want 0", got)
	}
}

// A leftover temp file — an interrupted write — is swept into quarantine and
// counted as recovered, and never shadows or corrupts committed records.
func TestTornTempFilesRecoveredAtBoot(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	ctx := context.Background()
	if err := s.Put(ctx, testKey(1024), testResult(1024)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"123456"), []byte("TFPL torn half-rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, reg2 := mustOpen(t, dir, 0)
	if got := reg2.Counter("store.recovered").Value(); got != 1 {
		t.Fatalf("store.recovered = %d, want 1", got)
	}
	if got := reg2.Counter("store.quarantined").Value(); got != 0 {
		t.Fatalf("store.quarantined = %d, want 0 (temp sweep is recovery, not corruption)", got)
	}
	if got := reg2.Counter("store.loaded").Value(); got != 1 {
		t.Fatalf("store.loaded = %d, want 1", got)
	}
	if _, ok := s2.Get(ctx, testKey(1024)); !ok {
		t.Fatal("committed record lost during temp recovery")
	}
	if q := quarantined(t, dir); len(q) != 1 || !strings.HasPrefix(q[0], tmpPrefix) {
		t.Fatalf("quarantine contents %v, want the swept temp file", q)
	}
}

// The byte budget evicts least-recently-used records (deleting, not
// quarantining — they are valid) and holds across reopen.
func TestEvictionBySizeCap(t *testing.T) {
	dir := t.TempDir()
	s, reg := mustOpen(t, dir, 0)
	ctx := context.Background()
	seqs := []int{1024, 2048, 4096, 8192}
	for _, seq := range seqs {
		if err := s.Put(ctx, testKey(seq), testResult(seq)); err != nil {
			t.Fatal(err)
		}
	}
	one := s.SizeBytes() / int64(len(seqs))

	// Touch the oldest record so recency, not insertion order, decides.
	if _, ok := s.Get(ctx, testKey(1024)); !ok {
		t.Fatal("warm-up get missed")
	}

	// Reopen with room for two records: the two least recently used go.
	s2, reg2 := mustOpen(t, dir, 2*one+one/2)
	if got := s2.Len(); got != 2 {
		t.Fatalf("after capped reopen: %d entries, want 2", got)
	}
	if reg2.Counter("store.evictions").Value() != 2 {
		t.Fatalf("store.evictions = %d, want 2", reg2.Counter("store.evictions").Value())
	}
	if _, ok := s2.Get(ctx, testKey(1024)); !ok {
		t.Fatal("most recently used record was evicted")
	}
	if _, ok := s2.Get(ctx, testKey(2048)); ok {
		t.Fatal("least recently used record survived the cap")
	}
	if q := quarantined(t, dir); len(q) != 0 {
		t.Fatalf("eviction quarantined valid records: %v", q)
	}
	_ = reg

	// Puts into the capped store keep it bounded.
	for _, seq := range []int{512, 256, 128} {
		if err := s2.Put(ctx, testKey(seq), testResult(seq)); err != nil {
			t.Fatal(err)
		}
		if s2.SizeBytes() > 2*one+one/2 {
			t.Fatalf("size %d exceeds cap after put", s2.SizeBytes())
		}
	}
}

// Injected disk faults: every kind must degrade to an error (Put) or a clean
// miss (Get), leaving the store consistent.
func TestChaosWriteShortWriteLeavesTornTempOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	inj, err := chaos.New(1, chaos.SiteConfig{Site: chaos.SiteStoreWrite, Kind: chaos.KindShortWrite, Every: 1, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := chaos.With(context.Background(), inj)
	key := testKey(1024)
	if err := s.Put(ctx, key, testResult(1024)); !errors.Is(err, chaos.ErrShortWrite) {
		t.Fatalf("Put under short-write injection = %v, want ErrShortWrite", err)
	}
	if _, ok := s.Get(ctx, key); ok {
		t.Fatal("torn write became visible under the live key")
	}
	// The torn temp file is on disk — exactly a crash's residue.
	ents, _ := os.ReadDir(dir)
	torn := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("%d torn temp files on disk, want 1", torn)
	}
	// The fault budget is spent: the retry commits, and a reopen both sweeps
	// the torn temp and serves the committed record.
	if err := s.Put(ctx, key, testResult(1024)); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	s2, reg2 := mustOpen(t, dir, 0)
	if reg2.Counter("store.recovered").Value() != 1 {
		t.Fatal("torn temp not recovered at reopen")
	}
	if got, ok := s2.Get(context.Background(), key); !ok || got.Cycles != testResult(1024).Cycles {
		t.Fatalf("committed record lost: (%v, %+v)", ok, got)
	}
}

func TestChaosReadAndFsyncFaultsDegradeCleanly(t *testing.T) {
	dir := t.TempDir()
	s, reg := mustOpen(t, dir, 0)
	key := testKey(1024)
	if err := s.Put(context.Background(), key, testResult(1024)); err != nil {
		t.Fatal(err)
	}

	inj, err := chaos.Parse("store.read=error@every=1@limit=1;store.fsync=error@every=1@limit=1", 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := chaos.With(context.Background(), inj)

	// Injected read error: clean miss, record untouched.
	if _, ok := s.Get(ctx, key); ok {
		t.Fatal("hit through an injected read error")
	}
	if reg.Counter("store.read_errors").Value() != 1 {
		t.Fatal("read error not counted")
	}
	if _, ok := s.Get(ctx, key); !ok {
		t.Fatal("record gone after injected read error — fault budget was limit=1")
	}

	// Injected fsync error: the put fails, no temp file survives, the old
	// record is still served.
	key2 := testKey(2048)
	if err := s.Put(ctx, key2, testResult(2048)); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("Put under fsync injection = %v, want ErrInjected", err)
	}
	if reg.Counter("store.put_errors").Value() != 1 {
		t.Fatal("put error not counted")
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("fsync-failed put leaked temp file %s", e.Name())
		}
	}
	if _, ok := s.Get(ctx, key); !ok {
		t.Fatal("prior record lost to a failed put")
	}
}

// Injected latency at store.read respects the caller's context — a slow disk
// cannot wedge a bounded caller.
func TestChaosReadLatencyBoundedByContext(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	key := testKey(1024)
	if err := s.Put(context.Background(), key, testResult(1024)); err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.Parse("store.read=latency:30s@every=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(chaos.With(context.Background(), inj), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := s.Get(ctx, key); ok {
		t.Fatal("hit through a timed-out read")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded read took %v", elapsed)
	}
}

// The store is safe under concurrent puts and gets (run with -race).
func TestConcurrentPutGet(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), 1<<20)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seq := 256 << ((w + i) % 4)
				if err := s.Put(ctx, testKey(seq), testResult(seq)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if res, ok := s.Get(ctx, testKey(seq)); ok && res.SeqLen != seq {
					t.Errorf("cross-key serve: asked seq %d, got %d", seq, res.SeqLen)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// appendChecksum re-signs a header+payload prefix (test helper for crafting
// records that are checksum-valid but wrong in other ways).
func appendChecksum(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// specKey builds a canonical key for an arbitrary model/seq in the test
// family (testKey is the "bert" shorthand).
func specKey(model string, seq int) string {
	return transfusion.RunSpec{Arch: "edge", Model: model, SeqLen: seq, System: "transfusion", SearchBudget: 8}.CanonicalKey()
}

// testPlanResult is a full-fidelity result carrying the plan summary the
// serving layer persists — the payload a warm-start hint is built from.
func testPlanResult(seq int) transfusion.RunResult {
	r := testResult(seq)
	r.Plan = &transfusion.PlanSummary{
		TileB: 1, TileD: 64, TileP: 64, TileM0: 64, TileM1: 256, TileS: 64,
		Layers: map[string]transfusion.LayerPlan{
			"mha": {Order: []string{"QK", "SM", "AV"}, First: []string{"QK"}, Epochs: 4},
		},
	}
	return r
}

// Warm-restart MRU order must be deterministic across boots even when a
// burst of writes lands every record on one coarse filesystem mtime: ties
// break on file name.
func TestWarmEntriesMRUDeterministicOnEqualMtime(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	ctx := context.Background()
	seqs := []int{1024, 2048, 4096}
	files := make([]string, 0, len(seqs))
	for _, seq := range seqs {
		if err := s.Put(ctx, testKey(seq), testResult(seq)); err != nil {
			t.Fatal(err)
		}
		files = append(files, FileName(testKey(seq)))
	}
	stamp := time.Now().Add(-time.Hour)
	for _, f := range files {
		if err := os.Chtimes(filepath.Join(dir, f), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	order := func() []string {
		s2, _ := mustOpen(t, dir, 0)
		var keys []string
		s2.WarmEntries(10, func(we WarmEntry) bool {
			keys = append(keys, we.Key)
			return true
		})
		return keys
	}
	first := order()
	if len(first) != len(seqs) {
		t.Fatalf("warm entries %d, want %d", len(first), len(seqs))
	}
	// Equal mtimes load in file-name order onto the LRU front, so the
	// warm stream is file-name descending — and identical across boots.
	wantFiles := append([]string(nil), files...)
	sort.Sort(sort.Reverse(sort.StringSlice(wantFiles)))
	for i, k := range first {
		if FileName(k) != wantFiles[i] {
			t.Fatalf("warm order[%d] = %s, want file %s", i, FileName(k), wantFiles[i])
		}
	}
	for boot := 0; boot < 3; boot++ {
		got := order()
		if len(got) != len(first) {
			t.Fatalf("warm order length changed across boots: %v vs %v", got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("warm order changed across boots: %v vs %v", got, first)
			}
		}
	}
	// The stream is lazy: a consumer stopping after the first record is
	// handed exactly one.
	s3, _ := mustOpen(t, dir, 0)
	n := 0
	s3.WarmEntries(10, func(WarmEntry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stopped stream delivered %d records, want 1", n)
	}
}

func TestNearestEdgeCases(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, 0)
	ctx := context.Background()
	for _, seq := range []int{1024, 2048} {
		if err := s.Put(ctx, specKey("bert", seq), testPlanResult(seq)); err != nil {
			t.Fatal(err)
		}
	}

	// A different model is a different warm-start family: no candidate.
	if _, ok := s.Nearest(ctx, specKey("llama3", 1536)); ok {
		t.Fatal("Nearest crossed model families")
	}

	// The exact key is never its own neighbour — exact hits belong to the
	// memory and disk tiers, which are consulted first.
	solo, _ := mustOpen(t, t.TempDir(), 0)
	if err := solo.Put(ctx, specKey("bert", 1024), testPlanResult(1024)); err != nil {
		t.Fatal(err)
	}
	if _, ok := solo.Nearest(ctx, specKey("bert", 1024)); ok {
		t.Fatal("Nearest offered the exact key as its own neighbour")
	}

	// Equidistant neighbours (1024 and 2048 are both 512 away from 1536)
	// tie-break deterministically towards the smaller sequence.
	ne, ok := s.Nearest(ctx, specKey("bert", 1536))
	if !ok || ne.SeqLen != 1024 {
		t.Fatalf("Nearest(1536) = (%+v, %v), want the deterministic smaller neighbour 1024", ne, ok)
	}
	if ne.Result.Plan == nil {
		t.Fatal("nearest hint lost its plan summary")
	}

	// Even when the queried seq itself is stored, the neighbour is the
	// other record — never the exact key.
	ne, ok = s.Nearest(ctx, specKey("bert", 2048))
	if !ok || ne.SeqLen != 1024 || ne.Key != specKey("bert", 1024) {
		t.Fatalf("Nearest(2048) = (%+v, %v), want the 1024 record", ne, ok)
	}

	// A record with no plan summary can never hint.
	noPlan, _ := mustOpen(t, t.TempDir(), 0)
	if err := noPlan.Put(ctx, specKey("bert", 1024), testResult(1024)); err != nil {
		t.Fatal(err)
	}
	if _, ok := noPlan.Nearest(ctx, specKey("bert", 2048)); ok {
		t.Fatal("plan-less record used as a warm hint")
	}

	// A degraded record must never launder into a hint, even if one somehow
	// reaches the store (the serving layer never persists them).
	deg, _ := mustOpen(t, t.TempDir(), 0)
	dres := testPlanResult(1024)
	dres.Degraded = true
	dres.DegradedReason = "injected for test"
	if err := deg.Put(ctx, specKey("bert", 1024), dres); err != nil {
		t.Fatal(err)
	}
	if _, ok := deg.Nearest(ctx, specKey("bert", 2048)); ok {
		t.Fatal("degraded record used as a warm hint")
	}
}

// scanNearest is Nearest as it was before the family index: a full scan that
// parses and re-keys every stored key. It is the reference the indexed
// lookup must agree with.
func scanNearest(s *Store, ctx context.Context, key string) (NearestEntry, bool) {
	want, ok := transfusion.ParseCanonicalKey(key)
	if !ok {
		return NearestEntry{}, false
	}
	wantSeq := want.SeqLen
	want.SeqLen = 0
	family := want.CanonicalKey()

	bestKey, bestSeq := "", 0
	bestDist := int64(-1)
	for _, k := range s.Keys() {
		if k == key {
			continue
		}
		spec, ok := transfusion.ParseCanonicalKey(k)
		if !ok {
			continue
		}
		seq := spec.SeqLen
		spec.SeqLen = 0
		if spec.CanonicalKey() != family {
			continue
		}
		d := int64(seq) - int64(wantSeq)
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist || (d == bestDist && seq < bestSeq) {
			bestDist, bestSeq, bestKey = d, seq, k
		}
	}
	if bestKey == "" {
		return NearestEntry{}, false
	}
	res, outcome, _ := s.get(ctx, bestKey)
	if outcome != "hit" || res.Degraded || res.Plan == nil {
		return NearestEntry{}, false
	}
	return NearestEntry{Key: bestKey, SeqLen: bestSeq, Result: res}, true
}

// The warm-start families the equivalence tests draw keys from: two zoo
// models, a custom model and a heuristic-only spec.
var nearestFamilies = []transfusion.RunSpec{
	{Arch: "edge", Model: "bert", System: "transfusion", SearchBudget: 8},
	{Arch: "edge", Model: "llama3", System: "transfusion", SearchBudget: 8},
	{Arch: "cloud", Model: "tiny", System: "transfusion", SearchBudget: 8, Causal: true,
		CustomModel: &transfusion.CustomModel{Name: "tiny", Heads: 2, HeadDim: 16, FFNHidden: 64, Layers: 1, Activation: "gelu"}},
	{Arch: "edge", Model: "bert", System: "fuseinf", HeuristicOnly: true},
}

// nearestUniverse lists every key the operation sequence may store: each
// family at a few seq lengths, plus keys that do not parse.
func nearestUniverse() []string {
	keys := []string{"k1", "k2|seq=1024"}
	for _, fam := range nearestFamilies {
		for _, seq := range []int{512, 1024, 2048, 3072, 4096, 8192} {
			spec := fam
			spec.SeqLen = seq
			keys = append(keys, spec.CanonicalKey())
		}
	}
	return keys
}

// nearestQueries lists the lookups checked after every step: each family at
// stored lengths (the exact key is excluded), between them (1536 and 6144
// are equidistant from two stored lengths), and beyond both ends, plus
// unparseable and foreign-family keys.
func nearestQueries() []string {
	keys := []string{"k1", "k2|seq=1024", specKey("gpt3", 2048)}
	for _, fam := range nearestFamilies {
		for _, seq := range []int{1, 512, 768, 1024, 1536, 2048, 2560, 3072, 4096, 6144, 8192, 1 << 20} {
			spec := fam
			spec.SeqLen = seq
			keys = append(keys, spec.CanonicalKey())
		}
	}
	return keys
}

// nearestRecord returns the result stored for a key: kind picks a plan-
// carrying, a plan-less or a degraded one, so the chosen neighbour is
// sometimes unusable and Nearest must report no hint rather than fall
// through.
func nearestRecord(seq int, kind byte) transfusion.RunResult {
	switch kind % 4 {
	case 0:
		return testResult(seq)
	case 1:
		r := testPlanResult(seq)
		r.Degraded, r.DegradedReason = true, "injected for test"
		return r
	default:
		return testPlanResult(seq)
	}
}

// seqOf is the SeqLen a universe key renders, 0 for an unparseable key.
func seqOf(key string) int {
	spec, _ := transfusion.ParseCanonicalKey(key)
	return spec.SeqLen
}

// recordCap is a store byte cap that holds about n plan records.
func recordCap(t *testing.T, n int) int64 {
	t.Helper()
	probe, err := encodeRecord(record{Key: specKey("bert", 1024), Result: testPlanResult(1024)})
	if err != nil {
		t.Fatal(err)
	}
	return int64(n * len(probe))
}

// checkNearestMatchesScan requires the indexed Nearest and the reference
// scan to agree on every query. The indexed lookup runs first; both read the
// same neighbour, so neither read changes what the other finds.
func checkNearestMatchesScan(t *testing.T, s *Store, step string) {
	t.Helper()
	ctx := context.Background()
	for _, q := range nearestQueries() {
		got, gotOK := s.Nearest(ctx, q)
		want, wantOK := scanNearest(s, ctx, q)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Nearest(%s) = (%s, seq %d, %v), reference scan = (%s, seq %d, %v)",
				step, q, got.Key, got.SeqLen, gotOK, want.Key, want.SeqLen, wantOK)
		}
	}
}

// runNearestOps applies the operation sequence ops encodes to a byte-capped
// store and checks Nearest against the reference scan after every step. Each
// operation is one byte, with argument bytes following:
//
//	0-2  Put a universe key (next byte picks the key, the one after the
//	     record kind); new keys and overwrites both occur, and the byte cap
//	     evicts least recently used records
//	3    corrupt a stored record on disk, then Get it (quarantine)
//	4    Get a stored key (moves it to the LRU front)
//	5    reopen the store, then Put up to two keys before the next check, so
//	     the lazily built index must take in keys Put before its build
func runNearestOps(t *testing.T, ops []byte) {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	universe := nearestUniverse()
	maxBytes := recordCap(t, 8)
	s, _ := mustOpen(t, dir, maxBytes)
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	put := func() {
		key := universe[int(next())%len(universe)]
		if err := s.Put(ctx, key, nearestRecord(seqOf(key), next())); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op := next() % 6
		switch op {
		case 0, 1, 2:
			put()
		case 3, 4:
			keys := s.Keys()
			if len(keys) == 0 {
				continue
			}
			key := keys[int(next())%len(keys)]
			if op == 3 {
				path := filepath.Join(dir, FileName(key))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[headerSize+1] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Get(ctx, key); ok {
					t.Fatalf("corrupted record %s served", key)
				}
			} else {
				s.Get(ctx, key)
			}
		case 5:
			s, _ = mustOpen(t, dir, maxBytes)
			for n := next() % 3; n > 0; n-- {
				put()
			}
		}
		checkNearestMatchesScan(t, s, fmt.Sprintf("step %d (op %d)", step, op))
	}
}

// The family index answers exactly as the full scan did, across new keys,
// overwrites, eviction, quarantine and reopen.
func TestNearestMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 300)
		rng.Read(ops)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runNearestOps(t, ops) })
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// fillStore writes one plan record per key of families × 6 seq lengths
// straight into dir (no fsync, so large stores build quickly) and opens it.
// Model names are fixed-width, so every record of one seq length has the
// same size.
func fillStore(tb testing.TB, families int) *Store {
	tb.Helper()
	dir := tb.TempDir()
	for f := 0; f < families; f++ {
		for _, seq := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20} {
			key := specKey(fmt.Sprintf("m%05d", f), seq)
			data, err := encodeRecord(record{Key: key, Result: testPlanResult(seq)})
			if err != nil {
				tb.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, FileName(key)), data, 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
	s, err := Open(dir, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// Nearest is a family lookup plus one record read: its allocation count
// does not grow with the store. A full scan allocates per stored key, so
// this fails if one comes back.
func TestNearestAllocsIndependentOfStoreSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	ctx := context.Background()
	query := specKey("m00000", 3<<10)
	allocs := func(families int) float64 {
		s := fillStore(t, families)
		return testing.AllocsPerRun(20, func() {
			if ne, ok := s.Nearest(ctx, query); !ok || ne.SeqLen != 1<<12 {
				t.Fatalf("Nearest(%s) = (%s, %v), want the 4096 neighbour", query, ne.Key, ok)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Fatalf("Nearest allocates %v times per call at 60 keys but %v at 6000", small, large)
	}
}

// Nearest runs concurrently with the first index build, Puts that evict
// under the byte cap, and quarantines (run with -race). Afterwards the index
// still agrees with the reference scan.
func TestNearestConcurrentWithMutations(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	universe := nearestUniverse()
	// Seed the directory through a first store, so the store under test
	// boots with unparsed keys and builds its index under load.
	seed, _ := mustOpen(t, dir, 0)
	for i, key := range universe {
		if err := seed.Put(ctx, key, nearestRecord(seqOf(key), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := mustOpen(t, dir, recordCap(t, 12))

	var wg sync.WaitGroup
	queries := nearestQueries()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := queries[(w*17+i)%len(queries)]
				ne, ok := s.Nearest(ctx, q)
				if !ok {
					continue
				}
				qf, _, _ := familyOf(q)
				nf, _, _ := familyOf(ne.Key)
				if ne.Key == q || nf != qf || ne.Result.Plan == nil {
					t.Errorf("Nearest(%s) = %s: not a plan-carrying neighbour in the family", q, ne.Key)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			key := universe[(i*7)%len(universe)]
			if err := s.Put(ctx, key, nearestRecord(seqOf(key), byte(i))); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			keys := s.Keys()
			if len(keys) == 0 {
				continue
			}
			key := keys[i%len(keys)]
			path := filepath.Join(dir, FileName(key))
			if data, err := os.ReadFile(path); err == nil && len(data) > headerSize+1 {
				data[headerSize+1] ^= 0x01
				os.WriteFile(path, data, 0o644) //nolint:errcheck // raced by Put or eviction: fine either way
			}
			s.Get(ctx, key)
		}
	}()
	wg.Wait()

	// Quarantine whatever is still corrupt, so both lookups see one state.
	for _, key := range s.Keys() {
		s.Get(ctx, key)
	}
	checkNearestMatchesScan(t, s, "after concurrent mutations")
}

// BenchmarkStoreNearest times a near-miss lookup (a stored length times
// 3/4) against stores of 600 and 6,000 plans.
func BenchmarkStoreNearest(b *testing.B) {
	ctx := context.Background()
	for _, families := range []int{100, 1000} {
		b.Run(fmt.Sprintf("keys=%d", 6*families), func(b *testing.B) {
			s := fillStore(b, families)
			queries := make([]string, 0, families)
			for f := 0; f < families; f++ {
				queries = append(queries, specKey(fmt.Sprintf("m%05d", f), 3<<(10+2*(f%6))))
			}
			s.Nearest(ctx, queries[0]) // builds the family index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Nearest(ctx, queries[i%len(queries)]); !ok {
					b.Fatal("near-miss lookup found no neighbour")
				}
			}
		})
	}
}
