package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"
)

// request is one scheduled HTTP call of the open-loop generator. The
// payload is encoded before the timed window starts.
type request struct {
	route  string // route label for per-route accounting
	method string
	path   string
	body   []byte
	due    time.Duration // offset from the window start
	conn   int           // connection (worker) that sends it
	item   int           // index of the workload input it carries

	// Filled in by the generator.
	start, done time.Duration // offsets from the window start
	status      int           // HTTP status; 0 when the call failed outright
	timedOut    bool
	resp        []byte
}

// latencyMs is the request's latency timed from when it was due, so a
// stall also charges the requests queued behind it.
func (q *request) latencyMs() float64 { return float64(q.done-q.due) / 1e6 }

// lateMs is how late the generator sent the request relative to its due
// time.
func (q *request) lateMs() float64 { return float64(q.start-q.due) / 1e6 }

func (q *request) ok() bool { return q.status >= 200 && q.status < 300 }

// routeStats counts one route's outcomes. The failure classes are
// disjoint: a failed request lands in exactly one.
type routeStats struct {
	Attempted   int `json:"attempted"`
	Succeeded   int `json:"succeeded"`
	Shed429     int `json:"shed_429"`
	Unavail503  int `json:"unavailable_503"`
	OtherNon2xx int `json:"other_non_2xx"`
	Timeouts    int `json:"timeouts"`
	Errors      int `json:"errors"`
}

func (s routeStats) failed() int { return s.Attempted - s.Succeeded }

// tally folds finished requests into per-route counts.
func tally(reqs []*request) map[string]*routeStats {
	out := map[string]*routeStats{}
	for _, q := range reqs {
		s := out[q.route]
		if s == nil {
			s = &routeStats{}
			out[q.route] = s
		}
		s.Attempted++
		switch {
		case q.ok():
			s.Succeeded++
		case q.timedOut:
			s.Timeouts++
		case q.status == http.StatusTooManyRequests:
			s.Shed429++
		case q.status == http.StatusServiceUnavailable:
			s.Unavail503++
		case q.status != 0:
			s.OtherNon2xx++
		default:
			s.Errors++
		}
	}
	return out
}

// generator sends scheduled requests over a fixed set of connections, one
// request at a time per connection, in due order. It is open-loop: a slow
// response delays the sends queued behind it on that connection, and that
// delay shows in both their latency and their lateness.
type generator struct {
	base    string // http://host:port
	conns   int
	timeout time.Duration
	clients []*http.Client
}

func newGenerator(base string, conns int, timeout time.Duration) *generator {
	g := &generator{base: base, conns: conns, timeout: timeout}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

// close drops the generator's idle connections.
func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs (sorted by due time) and returns once every one has
// finished. Offsets are measured from the moment run starts.
func (g *generator) run(ctx context.Context, reqs []*request) {
	per := make([][]*request, g.conns)
	for _, q := range reqs {
		per[q.conn] = append(per[q.conn], q)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(g.conns)
	for c := 0; c < g.conns; c++ {
		go func(client *http.Client, mine []*request) {
			defer wg.Done()
			for _, q := range mine {
				if wait := q.due - time.Since(t0); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				q.start = time.Since(t0)
				g.do(ctx, client, q)
				q.done = time.Since(t0)
			}
		}(g.clients[c], per[c])
	}
	wg.Wait()
}

// do performs one call and records its outcome on q.
func (g *generator) do(ctx context.Context, client *http.Client, q *request) {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, q.method, g.base+q.path, body)
	if err != nil {
		return
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		q.timedOut = errors.Is(err, context.DeadlineExceeded)
		return
	}
	defer resp.Body.Close()
	q.resp, err = io.ReadAll(resp.Body)
	if err != nil {
		q.timedOut = errors.Is(err, context.DeadlineExceeded)
		return
	}
	q.status = resp.StatusCode
}
