package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLatenessAccounting sends two requests due 10 ms apart on one
// connection; the first takes 80 ms, so the second goes out about 70 ms
// late and its latency, timed from its due time, includes that wait.
func TestLatenessAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(80 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 1, 5*time.Second)
	defer g.close()
	slow := &request{route: "r", method: http.MethodGet, path: "/slow"}
	fast := &request{route: "r", method: http.MethodGet, path: "/fast", due: 10 * time.Millisecond}
	g.run(context.Background(), []*request{slow, fast})

	if late := fast.lateMs(); late < 60 {
		t.Errorf("second request %.1f ms late, want >= 60 (it waited behind the slow one)", late)
	}
	if lat, own := fast.latencyMs(), float64(fast.done-fast.start)/1e6; lat < own+60 {
		t.Errorf("latency %.1f ms does not include the %.1f ms it waited past its due time", lat, fast.lateMs())
	}
	if slow.lateMs() > 20 {
		t.Errorf("first request %.1f ms late on an idle connection", slow.lateMs())
	}
}

func TestTallyClassifiesFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/429":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/503":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/500":
			w.WriteHeader(http.StatusInternalServerError)
		case "/hang":
			time.Sleep(300 * time.Millisecond)
		default:
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 2, 100*time.Millisecond)
	defer g.close()
	var reqs []*request
	for i, p := range []string{"/ok", "/429", "/503", "/500", "/hang", "/ok"} {
		reqs = append(reqs, &request{route: "x", method: http.MethodGet, path: p, conn: i % 2})
	}
	g.run(context.Background(), reqs)
	got := *tally(reqs)["x"]
	want := routeStats{Attempted: 6, Succeeded: 2, Shed429: 1, Unavail503: 1, OtherNon2xx: 1, Timeouts: 1}
	if got != want {
		t.Errorf("tally = %+v, want %+v", got, want)
	}
	if got.failed() != 4 {
		t.Errorf("failed = %d, want 4", got.failed())
	}
}
