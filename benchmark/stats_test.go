package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if n := beyond(xs, percentile(xs, 99)); n != 10 {
		t.Errorf("%d samples beyond p99 of 1000, want 10", n)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(percentile(xs, 0)) {
		t.Error("empty input or p = 0 must yield NaN")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestChunkRate(t *testing.T) {
	// Four chunks of two 10 ms items (100/s) and one stalled chunk.
	ms := []float64{10, 10, 10, 10, 10, 10, 500, 500, 10, 10, 10, 10, 99}
	if got := chunkRate(ms, 2); got != 100 {
		t.Errorf("chunkRate = %v, want 100: the stalled chunk must not decide it", got)
	}
	if !math.IsNaN(chunkRate(ms[:1], 2)) {
		t.Error("no whole chunk must yield NaN")
	}
}
