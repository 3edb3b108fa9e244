package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

type result struct {
	v     int
	hit   bool
	err   error
	panic any
}

// fixture is a Cache[int] whose hooks report each joiner as it starts to
// wait and count evictions.
type fixture struct {
	t      *testing.T
	c      *Cache[int]
	joins  chan struct{}
	evicts atomic.Int64
}

func newFixture(t *testing.T, max int) *fixture {
	f := &fixture{t: t, joins: make(chan struct{}, 8)}
	f.c = New[int](max, Hooks{
		Join: func(ctx, leader context.Context) func(error) {
			f.joins <- struct{}{}
			return func(error) {}
		},
		Evict: func() { f.evicts.Add(1) },
	})
	return f
}

// lead starts a Do of key whose function waits for the returned gate to
// close and then returns fn(). It returns once the function is running.
func (f *fixture) lead(key string, fn func() (int, bool, error)) (chan struct{}, <-chan result) {
	gate, started := make(chan struct{}), make(chan struct{})
	out := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			r.panic = recover()
			out <- r
		}()
		r.v, r.hit, r.err = f.c.Do(context.Background(), key, func() (int, bool, error) {
			close(started)
			<-gate
			return fn()
		})
	}()
	<-started
	return gate, out
}

// join starts a Do of key under ctx that must join the run in flight, and
// returns once it waits.
func (f *fixture) join(ctx context.Context, key string) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, hit, err := f.c.Do(ctx, key, func() (int, bool, error) {
			f.t.Error("a joiner ran its own function")
			return 0, false, nil
		})
		out <- result{v: v, hit: hit, err: err}
	}()
	<-f.joins
	return out
}

// do runs a Do of key whose function returns (v, keep, err).
func (f *fixture) do(key string, v int, keep bool, err error) result {
	var r result
	r.v, r.hit, r.err = f.c.Do(context.Background(), key, func() (int, bool, error) { return v, keep, err })
	return r
}

func (f *fixture) wantGet(key string, want int, ok bool) {
	f.t.Helper()
	if v, got := f.c.Get(key); got != ok || (ok && v != want) {
		f.t.Fatalf("Get(%q) = (%d, %t), want (%d, %t)", key, v, got, want, ok)
	}
}

func wantResult(t *testing.T, what string, got result, v int, hit bool) {
	t.Helper()
	if got.err != nil || got.panic != nil || got.v != v || got.hit != hit {
		t.Fatalf("%s = %+v, want value %d, hit %t, no error", what, got, v, hit)
	}
}

func TestCache(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, f *fixture)
	}{
		{"hit, join, lead", 0, func(t *testing.T, f *fixture) {
			gate, leader := f.lead("k", func() (int, bool, error) { return 7, true, nil })
			joiner := f.join(context.Background(), "k")
			close(gate)
			wantResult(t, "leader", <-leader, 7, false)
			wantResult(t, "joiner", <-joiner, 7, false)
			wantResult(t, "next caller", f.do("k", 0, true, nil), 7, true)
			f.wantGet("k", 7, true)
			if n := f.c.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		}},
		{"cancelled joiner leaves the leader to finish and cache", 0, func(t *testing.T, f *fixture) {
			gate, leader := f.lead("k", func() (int, bool, error) { return 9, true, nil })
			ctx, cancel := context.WithCancel(context.Background())
			joiner := f.join(ctx, "k")
			cancel()
			if r := <-joiner; !errors.Is(r.err, faults.ErrCanceled) || r.hit {
				t.Fatalf("cancelled joiner = %+v, want ErrCanceled", r)
			}
			close(gate)
			wantResult(t, "leader", <-leader, 9, false)
			wantResult(t, "next caller", f.do("k", 0, true, nil), 9, true)
		}},
		{"errors and unkept values are not retained", 0, func(t *testing.T, f *fixture) {
			gate, leader := f.lead("err", func() (int, bool, error) { return 1, true, boom })
			joiner := f.join(context.Background(), "err")
			close(gate)
			for _, r := range []result{<-leader, <-joiner} {
				if !errors.Is(r.err, boom) {
					t.Fatalf("caller of a failed run = %+v, want boom", r)
				}
			}
			f.wantGet("err", 0, false)
			wantResult(t, "retry after an error", f.do("err", 2, true, nil), 2, false)

			wantResult(t, "unkept", f.do("unkept", 3, false, nil), 3, false)
			f.wantGet("unkept", 0, false)
			wantResult(t, "retry after an unkept value", f.do("unkept", 4, true, nil), 4, false)
			if n := f.c.Len(); n != 2 {
				t.Fatalf("Len = %d, want 2", n)
			}
		}},
		{"LRU evicts the least recently used", 2, func(t *testing.T, f *fixture) {
			f.c.Put("a", 1)
			f.c.Put("b", 2)
			f.wantGet("a", 1, true) // b is now least recently used
			wantResult(t, "lead c", f.do("c", 3, true, nil), 3, false)
			f.wantGet("b", 0, false)
			f.wantGet("a", 1, true)
			f.wantGet("c", 3, true)
			f.c.Put("c", 4) // refreshing a key evicts nothing
			f.wantGet("c", 4, true)
			if n, e := f.c.Len(), f.evicts.Load(); n != 2 || e != 1 {
				t.Fatalf("Len = %d, evictions = %d, want 2 and 1", n, e)
			}
		}},
		{"a panicking leader releases its joiners with an internal error", 0, func(t *testing.T, f *fixture) {
			gate, leader := f.lead("k", func() (int, bool, error) { panic("objective bug") })
			joiner := f.join(context.Background(), "k")
			close(gate)
			if r := <-leader; r.panic != "objective bug" {
				t.Fatalf("leader = %+v, want the panic to propagate", r)
			}
			r := <-joiner
			var ie *faults.InternalError
			if !errors.As(r.err, &ie) || faults.HTTPStatus(r.err) != 500 {
				t.Fatalf("joiner = %+v, want *faults.InternalError", r)
			}
			wantResult(t, "retry after a panic", f.do("k", 5, true, nil), 5, false)
		}},
		{"Put during a run", 0, func(t *testing.T, f *fixture) {
			gate, leader := f.lead("k", func() (int, bool, error) { return 7, true, nil })
			joiner := f.join(context.Background(), "k")
			f.c.Put("k", 5)
			wantResult(t, "caller after Put", f.do("k", 0, true, nil), 5, true)
			close(gate)
			wantResult(t, "leader", <-leader, 7, false)
			wantResult(t, "joiner", <-joiner, 7, false)
			f.wantGet("k", 7, true) // the run's kept value replaces Put's
			if n := f.c.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFixture(t, tc.max)) })
	}
}

// Many goroutines calling Do, Get and Put on a small key set run each key's
// function exactly once and all see its value.
func TestSingleflightConcurrentCallers(t *testing.T) {
	const keys, callers = 8, 16
	c := New[int](0, Hooks{})
	var runs [keys]atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + g) % keys
				v, _, err := c.Do(context.Background(), fmt.Sprint(k), func() (int, bool, error) {
					runs[k].Add(1)
					return k * 10, true, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("Do(%d) = (%d, %v), want %d", k, v, err, k*10)
				}
				c.Get(fmt.Sprint(k))
				c.Put(fmt.Sprint("put", g), g)
			}
		}()
	}
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Fatalf("key %d ran %d times, want 1", k, n)
		}
	}
	if n := c.Len(); n != keys+callers {
		t.Fatalf("Len = %d, want %d", n, keys+callers)
	}
}
