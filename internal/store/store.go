// Package store is transfusiond's durable plan tier: a disk-backed,
// content-addressed store of completed RunResults keyed by
// RunSpec.CanonicalKey(), layered under the serving layer's in-memory LRU so
// searched schedules survive restarts (memory hit -> disk hit -> search).
//
// The store is built around one asymmetry: a lost record costs a re-search,
// a wrong record costs a wrong plan. Every failure mode therefore degrades
// to a cache miss, never to bad data being served:
//
//   - Writes are crash-safe. A record is serialised to a temp file in the
//     store directory, fsynced, and atomically renamed into place (then the
//     directory is fsynced, so the rename itself survives a crash). A crash
//     at any point leaves either the old state or the new state plus an
//     orphaned temp file — never a torn record under a live name.
//   - Records are self-verifying: a fixed magic, a schema version derived
//     from the CanonicalKey format (any change to the key's field set or
//     rendering changes the version and retires old records), the payload
//     length, and a SHA-256 checksum over header+payload. The decoder also
//     confirms the payload's embedded key hashes to the record's file name,
//     so a renamed or cross-copied file cannot serve under the wrong key.
//   - Opening is defensive: the boot scan verifies every record and
//     quarantines — renames into a quarantine/ subdirectory, never deletes —
//     anything torn, corrupted, or version-skewed, reporting
//     store.loaded/recovered/quarantined counters. Orphaned temp files
//     (interrupted writes) are swept aside the same way.
//   - Reads verify the checksum again and quarantine on mismatch, so
//     bit-rot after boot also degrades to a miss.
//
// An LRU-by-access-time eviction policy bounds the directory to a byte
// budget (evicting valid entries deletes them; quarantine is only ever for
// suspect bytes). Disk-fault injection sites (chaos.SiteStoreWrite /
// SiteStoreRead / SiteStoreFsync) thread through every file operation so the
// chaos suites can prove the miss-never-corrupt contract under -race.
package store

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

const (
	// magic opens every record file.
	magic = "TFPL"
	// recordSuffix names committed records; anything else in the directory
	// is either a temp file, the quarantine directory, or not ours.
	recordSuffix = ".plan"
	// tmpPrefix names in-progress writes. A temp file present at boot is an
	// interrupted write: swept into quarantine and counted as recovered.
	tmpPrefix = ".tmp-"
	// QuarantineDir is the subdirectory suspect files are renamed into.
	QuarantineDir = "quarantine"

	headerSize   = 4 + 4 + 8 // magic + version + payload length
	checksumSize = sha256.Size

	// maxPayloadBytes bounds a record's decoded payload; real records are a
	// few KB, so anything claiming more is corrupt (and must not drive a
	// giant allocation in the decoder).
	maxPayloadBytes = 8 << 20
)

// SchemaVersion fingerprints the CanonicalKey format: the canonical key of a
// fixed sentinel spec exercising every key field, folded through FNV-1a.
// Adding, removing, reordering, or re-rendering a key field changes the
// sentinel's key string and therefore the version, so records written under
// an older key scheme are quarantined at boot instead of being consulted
// under keys that no longer mean the same evaluation.
var SchemaVersion = func() uint32 {
	sentinel := transfusion.RunSpec{
		Arch: "schema", ArchFile: "schema", Model: "schema", SeqLen: 1,
		System: "schema", Batch: 1, SearchBudget: 1, Causal: true,
		SearchTimeout: time.Second, HeuristicOnly: true,
		CustomModel: &transfusion.CustomModel{
			Name: "schema", Heads: 1, HeadDim: 1, FFNHidden: 1, Layers: 1, Activation: "schema",
		},
	}
	h := fnv.New32a()
	h.Write([]byte(sentinel.CanonicalKey())) //nolint:errcheck // fnv never fails
	h.Write([]byte(recordLayout))            //nolint:errcheck // fnv never fails
	return h.Sum32()
}()

// recordLayout salts SchemaVersion with the record payload's layout, so
// changes to the stored RunResult shape retire old records the same way key
// format changes do. v2 added the PlanSummary (the warm-start hint): a
// pre-hint record would decode cleanly but silently carry no plan, so the
// version bump routes it through the quarantine path instead.
const recordLayout = "|record=v2-plan-summary"

// record is the on-disk payload (JSON inside the versioned binary envelope).
type record struct {
	// Key is the full canonical key the result was computed for; Get
	// verifies it matches the requested key, and the decoder verifies it
	// hashes to the record's file name.
	Key string `json:"key"`
	// SavedUnixMS records when the entry was persisted (diagnostics only).
	SavedUnixMS int64 `json:"saved_unix_ms"`
	// Result is the completed evaluation.
	Result transfusion.RunResult `json:"result"`
}

// FileName returns the committed record name for a canonical key: the hex
// SHA-256 of the key plus the record suffix. Content addressing keeps names
// filesystem-safe at any key length and makes the key->file mapping
// verifiable in both directions.
func FileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + recordSuffix
}

// encodeRecord serialises a record into the on-disk envelope:
// magic | version | payload length | JSON payload | SHA-256(header+payload).
func encodeRecord(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding record for %s: %w", rec.Key, err)
	}
	buf := make([]byte, 0, headerSize+len(payload)+checksumSize)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// decodeRecord parses and verifies one record file's bytes. Every defect —
// truncation, bit flips anywhere in header, payload, or checksum, a version
// from a different CanonicalKey format, payload-length lies, trailing
// garbage, undecodable JSON, or a key that does not hash to wantFile — is an
// error and never a panic (FuzzStoreDecode holds it to that). wantFile ""
// skips the file-name check.
func decodeRecord(data []byte, wantFile string) (record, error) {
	var rec record
	if len(data) < headerSize+checksumSize {
		return rec, fmt.Errorf("store: record truncated: %d bytes < minimum %d", len(data), headerSize+checksumSize)
	}
	if string(data[:4]) != magic {
		return rec, fmt.Errorf("store: bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != SchemaVersion {
		return rec, fmt.Errorf("store: schema version %#x does not match current %#x (CanonicalKey format changed)", version, SchemaVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:headerSize])
	if plen > maxPayloadBytes {
		return rec, fmt.Errorf("store: payload length %d exceeds limit %d", plen, maxPayloadBytes)
	}
	if uint64(len(data)) != headerSize+plen+checksumSize {
		return rec, fmt.Errorf("store: record is %d bytes, header claims %d", len(data), headerSize+plen+uint64(checksumSize))
	}
	body := data[:headerSize+plen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[headerSize+plen:]) {
		return rec, errors.New("store: checksum mismatch")
	}
	dec := json.NewDecoder(bytes.NewReader(body[headerSize:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("store: undecodable payload: %w", err)
	}
	if rec.Key == "" {
		return rec, errors.New("store: record has empty key")
	}
	if wantFile != "" && FileName(rec.Key) != wantFile {
		return rec, fmt.Errorf("store: key does not hash to file name %s", wantFile)
	}
	return rec, nil
}

// entry is one committed record in the in-memory index.
type entry struct {
	key  string
	file string // base name within dir
	size int64
}

// Store is the durable plan tier. All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu         sync.Mutex
	lru        *list.List               // front = most recently used
	byKey      map[string]*list.Element // key -> element holding *entry
	totalBytes int64

	hits        *obs.Counter
	misses      *obs.Counter
	puts        *obs.Counter
	putErrors   *obs.Counter
	readErrors  *obs.Counter
	evictions   *obs.Counter
	loaded      *obs.Counter
	recovered   *obs.Counter
	quarantined *obs.Counter
	entriesG    *obs.Gauge
	bytesG      *obs.Gauge
}

// Open mounts (creating if needed) the store at dir, bounded to maxBytes on
// disk (<= 0 disables the cap), and runs the recovery scan: every committed
// record is read and verified, valid entries are indexed LRU-ordered by
// modification time, orphaned temp files are swept into quarantine
// (store.recovered), and torn/corrupted/version-skewed records are
// quarantined (store.quarantined) — renamed aside, never deleted, so a bad
// record is still on disk for a post-mortem. reg (nil-safe) receives the
// store.* metrics.
func Open(dir string, maxBytes int64, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),

		hits:        reg.Counter("store.hits"),
		misses:      reg.Counter("store.misses"),
		puts:        reg.Counter("store.puts"),
		putErrors:   reg.Counter("store.put_errors"),
		readErrors:  reg.Counter("store.read_errors"),
		evictions:   reg.Counter("store.evictions"),
		loaded:      reg.Counter("store.loaded"),
		recovered:   reg.Counter("store.recovered"),
		quarantined: reg.Counter("store.quarantined"),
		entriesG:    reg.Gauge("store.entries"),
		bytesG:      reg.Gauge("store.size_bytes"),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover is the boot scan; see Open.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	type found struct {
		e     entry
		mtime time.Time
	}
	var valid []found
	for _, de := range ents {
		name := de.Name()
		switch {
		case de.IsDir():
			continue // quarantine/ (or someone else's subdirectory)
		case strings.HasPrefix(name, tmpPrefix):
			// An interrupted write: by construction it never reached its
			// final name, so nothing references it — sweep it aside.
			s.quarantine(name)
			s.recovered.Inc()
			continue
		case !strings.HasSuffix(name, recordSuffix):
			continue // not ours; leave it alone
		}
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			s.quarantine(name)
			s.quarantined.Inc()
			continue
		}
		rec, err := decodeRecord(data, name)
		if err != nil {
			s.quarantine(name)
			s.quarantined.Inc()
			continue
		}
		info, err := de.Info()
		mtime := time.Now()
		if err == nil {
			mtime = info.ModTime()
		}
		valid = append(valid, found{e: entry{key: rec.Key, file: name, size: int64(len(data))}, mtime: mtime})
	}
	// Oldest first, so pushing to the LRU front leaves the most recently
	// touched record at the front (first to warm-start, last to evict).
	// Records sharing an mtime (coarse filesystem clocks make this common
	// for a burst of writes) tie-break on file name, so warm-restart MRU
	// order is deterministic across boots.
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].mtime.Equal(valid[j].mtime) {
			return valid[i].e.file < valid[j].e.file
		}
		return valid[i].mtime.Before(valid[j].mtime)
	})
	s.mu.Lock()
	for i := range valid {
		e := valid[i].e
		s.byKey[e.key] = s.lru.PushFront(&entry{key: e.key, file: e.file, size: e.size})
		s.totalBytes += e.size
	}
	s.loaded.Add(int64(len(valid)))
	s.evictLocked()
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// quarantine renames a suspect file into the quarantine directory with a
// uniquifying timestamp suffix. Best-effort: the file may already be gone.
func (s *Store) quarantine(name string) {
	dst := filepath.Join(s.dir, QuarantineDir, fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	os.Rename(filepath.Join(s.dir, name), dst) //nolint:errcheck
}

// publishLocked refreshes the occupancy gauges. Caller holds mu.
func (s *Store) publishLocked() {
	s.entriesG.Set(float64(s.lru.Len()))
	s.bytesG.Set(float64(s.totalBytes))
}

// evictLocked deletes least-recently-used entries until the byte budget
// holds. Eviction is the one place the store deletes: these are verified,
// valid records being traded for space, not suspect bytes. Caller holds mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.totalBytes > s.maxBytes && s.lru.Len() > 0 {
		tail := s.lru.Back()
		e := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.byKey, e.key)
		s.totalBytes -= e.size
		os.Remove(filepath.Join(s.dir, e.file)) //nolint:errcheck
		s.evictions.Inc()
	}
}

// Put durably persists a completed result under its canonical key:
// serialise, write to a temp file, fsync, atomically rename into place,
// fsync the directory. On any error the store's on-disk state is unchanged
// (an injected short write deliberately leaves a torn temp file — the exact
// residue of a crash mid-write — which the next Open sweeps). ctx carries
// the chaos injector and bounds injected latency.
func (s *Store) Put(ctx context.Context, key string, res transfusion.RunResult) (err error) {
	// A traced caller (the serving layer's async fill) sees the commit as a
	// "store.write" span whose duration covers the whole
	// write→fsync→rename pipeline, injected chaos latency included.
	_, sp := obs.StartSpan(ctx, "store.write")
	defer func() {
		if err != nil {
			s.putErrors.Inc()
		}
		sp.EndErr(err)
	}()
	if key == "" {
		return errors.New("store: empty key")
	}
	data, err := encodeRecord(record{Key: key, SavedUnixMS: time.Now().UnixMilli(), Result: res})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	tmp := f.Name()
	if serr := chaos.SiteFrom(ctx, chaos.SiteStoreWrite).Strike(ctx); serr != nil {
		if errors.Is(serr, chaos.ErrShortWrite) {
			// A torn write: half the record reaches the disk, then the
			// "crash". The temp file is left in place on purpose — it is the
			// state a real kill-mid-write leaves, and recovery must sweep it.
			f.Write(data[:len(data)/2]) //nolint:errcheck
			f.Close()                   //nolint:errcheck
			return serr
		}
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return serr
	}
	if _, err := f.Write(data); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if serr := chaos.SiteFrom(ctx, chaos.SiteStoreFsync).Strike(ctx); serr != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return serr
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	file := FileName(key)
	if err := os.Rename(tmp, filepath.Join(s.dir, file)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("store: committing %s: %w", file, err)
	}
	// The rename is already visible; a failed directory fsync only weakens
	// crash durability of the rename itself. The entry is indexed anyway —
	// worst case a crash forgets it, which is a miss.
	syncDir(s.dir) //nolint:errcheck

	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		// Overwrite: same file name, new size.
		old := el.Value.(*entry)
		s.totalBytes += int64(len(data)) - old.size
		old.size = int64(len(data))
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&entry{key: key, file: file, size: int64(len(data))})
		s.totalBytes += int64(len(data))
	}
	s.evictLocked()
	s.publishLocked()
	s.mu.Unlock()
	s.puts.Inc()
	return nil
}

// Get returns the stored result for key. Every failure — unknown key,
// injected or real read error, a record that fails verification (which is
// quarantined on the spot), a key mismatch — reports a miss: the disk tier
// can cost a re-search, never a wrong plan. A hit refreshes the entry's LRU
// position and (best-effort) its file mtime, so access recency survives
// restarts.
//
// A traced caller sees the lookup as a "store.read" span: its duration
// covers the whole read (injected chaos latency included), its "outcome"
// attr distinguishes a clean miss from a fault-induced one, and a fault's
// error lands on the span even though the caller only ever observes a miss.
func (s *Store) Get(ctx context.Context, key string) (transfusion.RunResult, bool) {
	ctx, sp := obs.StartSpan(ctx, "store.read")
	res, outcome, err := s.get(ctx, key)
	if sp != nil {
		sp.SetAttrBool("hit", outcome == "hit")
		sp.SetAttr("outcome", outcome)
		sp.EndErr(err)
	}
	return res, outcome == "hit"
}

// get is Get's body; outcome is "hit", "miss" (key unknown), or the failure
// class behind a forced miss ("read_error", "quarantined"), with err carrying
// the underlying fault for trace attribution.
func (s *Store) get(ctx context.Context, key string) (transfusion.RunResult, string, error) {
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Inc()
		return transfusion.RunResult{}, "miss", nil
	}
	file := el.Value.(*entry).file
	s.mu.Unlock()

	if err := chaos.SiteFrom(ctx, chaos.SiteStoreRead).Strike(ctx); err != nil {
		s.readErrors.Inc()
		s.misses.Inc()
		return transfusion.RunResult{}, "read_error", err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, file))
	if err != nil {
		// Concurrently evicted, or genuinely unreadable: a miss either way.
		s.readErrors.Inc()
		s.misses.Inc()
		return transfusion.RunResult{}, "read_error", err
	}
	rec, err := decodeRecord(data, file)
	if err != nil || rec.Key != key {
		// Verified bad after boot (bit-rot, tampering, or a hash collision's
		// impostor): quarantine and forget it.
		s.quarantine(file)
		s.quarantined.Inc()
		s.dropEntry(key)
		s.misses.Inc()
		if err == nil {
			err = fmt.Errorf("store: record %s carries key %q, want %q", file, rec.Key, key)
		}
		return transfusion.RunResult{}, "quarantined", err
	}

	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	now := time.Now()
	os.Chtimes(filepath.Join(s.dir, file), now, now) //nolint:errcheck // best-effort recency persistence
	s.hits.Inc()
	return rec.Result, "hit", nil
}

// dropEntry removes key from the index (after its file was quarantined).
func (s *Store) dropEntry(key string) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.Remove(el)
		delete(s.byKey, key)
		s.totalBytes -= el.Value.(*entry).size
		s.publishLocked()
	}
	s.mu.Unlock()
}

// WarmEntry is one decoded record returned by WarmEntries.
type WarmEntry struct {
	Key    string
	Result transfusion.RunResult
}

// WarmEntries streams up to max records, most recently used first, to fn,
// stopping early when fn returns false — the warm-restart seed for an
// in-memory cache layered above the store. Records are read and decoded
// lazily, one at a time, so a consumer that stops early (a cache smaller
// than the store) never pays decode cost for payloads it will not keep.
// Records failing re-verification are skipped (and quarantined by the Get
// machinery on their next touch); a short read here costs warmth, not
// correctness.
func (s *Store) WarmEntries(max int, fn func(WarmEntry) bool) {
	s.mu.Lock()
	files := make([]string, 0, max)
	for el := s.lru.Front(); el != nil && len(files) < max; el = el.Next() {
		files = append(files, el.Value.(*entry).file)
	}
	s.mu.Unlock()
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(s.dir, file))
		if err != nil {
			continue
		}
		rec, err := decodeRecord(data, file)
		if err != nil {
			continue
		}
		if !fn(WarmEntry{Key: rec.Key, Result: rec.Result}) {
			return
		}
	}
}

// Keys returns every committed record's canonical key, sorted — the input
// to offline walks of the stored plan grid (the serving layer's -warm-grid
// precompute).
func (s *Store) Keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// NearestEntry is the warm-start neighbour returned by Nearest.
type NearestEntry struct {
	// Key is the neighbour's canonical key.
	Key string
	// SeqLen is the neighbour's sequence length.
	SeqLen int
	// Result is the neighbour's stored evaluation (Plan non-nil).
	Result transfusion.RunResult
}

// Nearest returns the stored plan nearest to the spec behind key: the same
// canonical key on every field except SeqLen (the warm-start family —
// distance is derived from the parsed CanonicalKey fields), minimising
// |SeqLen - want| with ties broken towards the smaller sequence so the
// choice is deterministic. The exact key itself is never a candidate: exact
// hits belong to the memory and disk tiers, which are consulted before any
// warm-start lookup. Records whose result carries no plan summary or is
// degraded are skipped — degraded results are never persisted in the first
// place, and a hint must never launder one back into a search. The chosen
// record is read through the same verify-or-quarantine machinery as Get
// (and counts in store.hits like any read), so a torn neighbour degrades to
// "no hint", never to a wrong hint.
func (s *Store) Nearest(ctx context.Context, key string) (NearestEntry, bool) {
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

// Len returns the number of committed records indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// SizeBytes returns the total bytes of committed records indexed.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// syncDir fsyncs a directory so a just-committed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
