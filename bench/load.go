package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of a measured phase.
type sample struct {
	pos     int64         // position in the request sequence; the request id
	start   time.Duration // since the phase began
	latency time.Duration // send until the body is fully read
	answer
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	samples []sample
	wall    time.Duration // phase start until the last answer
}

// loadgen sends a workload's request sequence to the fleet. Its cursor
// carries on from phase to phase.
type loadgen struct {
	hc    *http.Client
	urls  []string
	in    *inputs
	check *checker
	// keepResults keeps the result of every checkEvery-th position for the
	// reference check after the run.
	keepResults bool
	next        atomic.Int64
}

func newLoadgen(urls []string, clients int, in *inputs, check *checker, keepResults bool) *loadgen {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &loadgen{hc: &http.Client{Transport: tr}, urls: urls, in: in, check: check, keepResults: keepResults}
}

// claim takes the next sequence position below limit, or reports false.
func (g *loadgen) claim(limit int64) (int64, bool) {
	for {
		p := g.next.Load()
		if p >= limit {
			return 0, false
		}
		if g.next.CompareAndSwap(p, p+1) {
			return p, true
		}
	}
}

// run drives clients closed-loop, each sending its next request only after
// the previous answer is read, until dur has passed (dur > 0), n requests
// have been sent (n > 0), or the sequence ends. Request position p goes to
// replica p mod len(urls). When tr is non-nil every request is recorded as
// a span.
func (g *loadgen) run(ctx context.Context, clients int, n int64, dur time.Duration, tr *tracer) (phase, error) {
	limit := int64(1) << 62
	if n > 0 {
		limit = g.next.Load() + n
	}
	start := time.Now()
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out phase
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil && (dur <= 0 || time.Since(start) < dur) {
				pos, ok := g.claim(limit)
				if !ok {
					break
				}
				req, ok := g.in.next(pos)
				if !ok {
					break
				}
				mine = append(mine, g.send(ctx, pos, req, start, tr))
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return phase{}, err
	}
	for _, s := range out.samples {
		out.wall = max(out.wall, s.start+s.latency)
	}
	return out, nil
}

// send posts one request and judges its answer.
func (g *loadgen) send(ctx context.Context, pos int64, req *request, start time.Time, tr *tracer) sample {
	url := g.urls[pos%int64(len(g.urls))] + "/v1/plan"
	t0 := time.Now()
	status, hdr, body, err := g.post(ctx, url, req.body)
	t1 := time.Now()
	s := sample{pos: pos, start: t0.Sub(start), latency: t1.Sub(t0)}
	if err != nil {
		s.fail = "transport: " + err.Error()
	} else {
		s.answer = g.check.check(req, status, hdr, body)
	}
	if !g.keepResults || pos%checkEvery != 0 {
		s.result = nil
	}
	tr.add(span{Name: "client.plan", Req: pos, Start: tr.since(t0), End: tr.since(t1)})
	return s
}

func (g *loadgen) post(ctx context.Context, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// close drops the generator's idle connections.
func (g *loadgen) close() { g.hc.CloseIdleConnections() }
