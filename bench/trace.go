package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share its id (its position in the request sequence).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

// add records a finished span, giving it an id if it has none.
func (t *tracer) add(s span) span {
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.ids++
		s.ID = t.ids
	}
	t.spans = append(t.spans, s)
	return s
}

// start opens a span; its id is fixed now so children can name it.
func (t *tracer) start(name string, parent, req int64) span {
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Name: name, Req: req, Start: t.since(time.Now())}
}

// finish closes and records s.
func (t *tracer) finish(s span) span {
	s.End = t.since(time.Now())
	return t.add(s)
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is s's duration minus the part of it its child spans cover.
func (t *tracer) selfTime(s span) time.Duration {
	t.mu.Lock()
	var kids [][2]int64
	for _, c := range t.spans {
		if c.Parent == s.ID {
			kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	t.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), s.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return s.dur() - time.Duration(covered)
}
