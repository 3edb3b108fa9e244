// Package flight is a coalescing cache: concurrent Do calls for one key share
// one run of the leader's function, and the values the leader keeps are
// retained, optionally under an LRU bound. The plan server's memory tier and
// the experiments Runner's evaluation cache both run on it.
package flight

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

// Hooks observe a Cache. A nil field is skipped; none runs under the lock.
type Hooks struct {
	// Join is called when a caller is about to wait on an in-flight run,
	// with the caller's context and the leader's. The function it returns is
	// called with the caller's error when the wait ends.
	Join func(ctx, leader context.Context) func(error)
	// Evict is called once for each completed entry the bound evicts.
	Evict func()
}

// Cache is a coalescing cache of V values by string key. A key's completed
// value and its in-flight run are one entry in one map under one lock, so
// whether a caller hits, joins or leads is decided atomically and no second
// leader can start while a run is in flight.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int
	hooks   Hooks
	entries map[string]*entry[V]
	lru     list.List // completed entries; front = most recently used
}

// entry is one key's value: in flight until elem is set, completed after.
// val and err are written once, before done closes (an entry Put has no
// run and no done), and a completed entry is replaced, never changed, so
// joiners read them without the lock.
type entry[V any] struct {
	key    string
	val    V
	err    error
	done   chan struct{}
	leader context.Context // the leader's context while in flight
	elem   *list.Element
}

// New returns a Cache that retains at most max completed entries, evicting
// the least recently used; max <= 0 retains every entry.
func New[V any](max int, hooks Hooks) *Cache[V] {
	return &Cache[V]{max: max, hooks: hooks, entries: make(map[string]*entry[V])}
}

// Do returns key's completed value with hit set, or else waits on key's
// in-flight run (a join), or else runs fn as key's leader. fn reports
// whether its value is kept; a value that comes with an error never is. ctx
// bounds only a joiner's wait, which ends in faults.ErrCanceled when ctx is
// done; the leader's fn runs to completion under whatever context it
// captured. If fn panics, the panic keeps propagating through the leader's
// Do, and every joiner gets a *faults.InternalError.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, bool, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case ok && e.elem != nil:
		c.lru.MoveToFront(e.elem)
		v = e.val
		c.mu.Unlock()
		return v, true, nil
	case !ok:
		e = &entry[V]{key: key, done: make(chan struct{}), leader: ctx}
		c.entries[key] = e
		c.mu.Unlock()
		return c.lead(e, fn)
	}
	leader := e.leader
	c.mu.Unlock()
	end := func(error) {}
	if c.hooks.Join != nil {
		end = c.hooks.Join(ctx, leader)
	}
	select {
	case <-e.done:
		v, err = e.val, e.err
	case <-ctx.Done():
		err = faults.Canceled(ctx)
	}
	end(err)
	return v, false, err
}

// lead runs fn for e's key, then retires the run: e becomes the key's
// completed entry when its value is kept, it is dropped otherwise, and then
// the joiners are released — also when fn panics.
func (c *Cache[V]) lead(e *entry[V], fn func() (V, bool, error)) (v V, _ bool, err error) {
	keep, panicked := false, true
	defer func() {
		if panicked {
			err = &faults.InternalError{Panic: fmt.Sprintf("flight: leader of %s panicked", e.key)}
		}
		e.val, e.err = v, err
		evicted := false
		c.mu.Lock()
		e.leader = nil // a kept entry must not pin the leader's context
		if keep && err == nil {
			evicted = c.store(e)
		} else if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		c.mu.Unlock()
		close(e.done)
		c.evicted(evicted)
	}()
	v, keep, err = fn()
	panicked = false
	return v, false, err
}

// store makes e its key's completed entry, replacing the key's current one,
// and evicts the LRU tail beyond max; as each store adds at most one entry,
// it evicts at most one, and reports whether it did. c.mu is held.
func (c *Cache[V]) store(e *entry[V]) bool {
	if cur, ok := c.entries[e.key]; ok && cur.elem != nil {
		c.lru.Remove(cur.elem)
	}
	c.entries[e.key] = e
	e.elem = c.lru.PushFront(e)
	if c.max <= 0 || c.lru.Len() <= c.max {
		return false
	}
	delete(c.entries, c.lru.Remove(c.lru.Back()).(*entry[V]).key)
	return true
}

func (c *Cache[V]) evicted(evicted bool) {
	if evicted && c.hooks.Evict != nil {
		c.hooks.Evict()
	}
}

// Get returns key's completed value without joining or starting a run, and
// marks it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		c.lru.MoveToFront(e.elem)
		return e.val, true
	}
	return v, false
}

// Put makes v key's completed value. Callers already waiting on an in-flight
// run of key still get that run's result, and a kept result of that run
// replaces v when it completes.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	evicted := c.store(&entry[V]{key: key, val: v})
	c.mu.Unlock()
	c.evicted(evicted)
}

// Len returns the number of completed entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
