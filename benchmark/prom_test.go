package main

import (
	"strings"
	"testing"

	"parallelspikesim/internal/obs"
)

func TestParsePromFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("psserve_http_requests_total").Add(42)
	reg.Gauge("continual_queue_depth").Set(3.5)
	tm := reg.Timer("infer_forward_ns")
	tm.Observe(2_000_000)
	tm.Observe(4_000_000)
	s, err := registryScrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	if s["psserve_http_requests_total"] != 42 || s["continual_queue_depth"] != 3.5 {
		t.Errorf("counter/gauge: %v", s)
	}
	if s["infer_forward_ns_count"] != 2 || s["infer_forward_ns_sum"] != 6e6 {
		t.Errorf("timer sum/count: %v", s)
	}
	if got := s.meanMs("infer_forward_ns"); got != 3 {
		t.Errorf("meanMs = %v, want 3", got)
	}
	for k := range s {
		if strings.Contains(k, "bucket") {
			t.Errorf("bucket series %q kept", k)
		}
	}
	if s.meanMs("absent_ns") != 0 {
		t.Error("an absent timer must read 0")
	}
}

func TestParsePromDelta(t *testing.T) {
	start, err := parseProm(strings.NewReader("# TYPE a counter\na 10\nt_sum 100\nt_count 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	end, err := parseProm(strings.NewReader("a 25\nt_sum 400\nt_count 4\nb 7\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := end.delta(start)
	if d["a"] != 15 || d["b"] != 7 || d["t_count"] != 3 || d["t_sum"] != 300 {
		t.Errorf("delta = %v", d)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, in := range []string{"novalue\n", "a notanumber\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", in)
		}
	}
}
