package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/store"
)

// corpus is the template plan store every store-backed workload boots from,
// and the reference answers for the Zipf workloads.
type corpus struct {
	dir  string
	keys []string // sorted
	res  map[string]transfusion.RunResult
	// want is each key's result as compact JSON, the form answers are
	// compared in.
	want map[string][]byte
}

// loadCorpus returns the template store for sz under work, building it when
// absent. The store is computed in-process and depends only on the program,
// so it is kept across runs, keyed by a hash of this executable.
func loadCorpus(ctx context.Context, work string, sz size) (*corpus, error) {
	tag, err := exeTag()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, fmt.Sprintf("corpus-%s-%s", sz.name, tag))
	specs := corpusSpecs(sz)
	if c, err := readCorpus(dir, specs); err == nil {
		return c, nil
	}
	// Corpora of other builds are stale; so is a damaged one at dir.
	stale, err := filepath.Glob(filepath.Join(work, fmt.Sprintf("corpus-%s-*", sz.name)))
	if err != nil {
		return nil, err
	}
	for _, s := range stale {
		if err := os.RemoveAll(s); err != nil {
			return nil, err
		}
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := buildCorpus(ctx, tmp, specs); err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup of a partial build
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, fmt.Errorf("committing corpus: %w", err)
	}
	return readCorpus(dir, specs)
}

// exeTag identifies the running executable's contents.
func exeTag() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// buildCorpus computes every spec with RunContext at Parallelism 1 on up to
// two goroutines and writes each result to a new store at dir.
func buildCorpus(ctx context.Context, dir string, specs []transfusion.RunSpec) error {
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	return parallel(len(specs), func(i int) error { return putPlan(ctx, st, specs[i]) })
}

// parallel calls fn for 0..n-1 on up to two goroutines and returns the first
// error; after one, the remaining calls are skipped.
func parallel(n int, fn func(i int) error) error {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	for w := 0; w < min(2, runtime.NumCPU()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && !failed(); i = int(next.Add(1)) - 1 {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func putPlan(ctx context.Context, st *store.Store, spec transfusion.RunSpec) error {
	spec.Parallelism = 1
	res, err := transfusion.RunContext(ctx, spec)
	if err != nil {
		return fmt.Errorf("corpus %s: %w", spec.CanonicalKey(), err)
	}
	if res.Degraded {
		return fmt.Errorf("corpus %s: degraded: %s", spec.CanonicalKey(), res.DegradedReason)
	}
	return st.Put(ctx, spec.CanonicalKey(), res)
}

// readCorpus opens the store at dir and loads every result, failing unless
// it holds exactly specs.
func readCorpus(dir string, specs []transfusion.RunSpec) (*corpus, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	c := &corpus{dir: dir, res: make(map[string]transfusion.RunResult), want: make(map[string][]byte)}
	for _, s := range specs {
		c.keys = append(c.keys, s.CanonicalKey())
	}
	slices.Sort(c.keys)
	if !slices.Equal(st.Keys(), c.keys) {
		return nil, fmt.Errorf("corpus at %s does not hold the expected %d plans", dir, len(c.keys))
	}
	for _, k := range c.keys {
		res, ok := st.Get(context.Background(), k)
		if !ok {
			return nil, fmt.Errorf("corpus at %s: unreadable plan %s", dir, k)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		c.res[k], c.want[k] = res, want
	}
	return c, nil
}

// copyTo copies the records of the keys keep accepts into a new store
// directory dst.
func (c *corpus) copyTo(dst string, keep func(key string) bool) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, k := range c.keys {
		if !keep(k) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(c.dir, store.FileName(k)))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, store.FileName(k)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
