package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition, keyed by sample
// name. Histogram series keep only their _sum and _count samples; bucket
// lines are dropped, because the program's first bucket is 1 µs and the
// per-bucket shape of a fast phase says nothing.
type scrape map[string]float64

// parseProm reads the Prometheus text format as obs.Snapshot.WritePrometheus
// and psserve's /metrics render it: comment lines, then one
// "name value" or "name{labels} value" sample per line.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sp := strings.LastIndexByte(text, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		name, val := text[:sp], text[sp+1:]
		if strings.Contains(name, "{") {
			continue // histogram bucket (the only labelled series)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// delta returns end minus start for every sample in end; a sample absent
// from start counts from zero. Gauges come out as end values when absent
// at the start, which is what a windowed reading of them needs.
func (end scrape) delta(start scrape) scrape {
	out := scrape{}
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// add accumulates other into s.
func (s scrape) add(other scrape) {
	for k, v := range other {
		s[k] += v
	}
}

// meanMs is a timer's sum divided by its count, in milliseconds; 0 when
// the timer recorded nothing.
func (s scrape) meanMs(timer string) float64 {
	n := s[timer+"_count"]
	if n == 0 {
		return 0
	}
	return s[timer+"_sum"] / n / 1e6
}
