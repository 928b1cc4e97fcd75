package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// does not reorder xs. An empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p <= 0 || p > 100 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile by the midpoint rule: for an even count it
// averages the two middle samples, so a median of repeated set-ups does not
// snap to one of them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// beyond counts the samples strictly above v: how many samples lie past a
// reported percentile.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// chunkRate is a throughput that one slow stretch of a run cannot decide:
// the items (with their durations in ms, in run order) are cut into
// consecutive chunks of n, and the median of the chunks' items per second
// is returned. A trailing partial chunk is dropped.
func chunkRate(ms []float64, n int) float64 {
	var rates []float64
	for lo := 0; lo+n <= len(ms); lo += n {
		sum := 0.0
		for _, x := range ms[lo : lo+n] {
			sum += x
		}
		rates = append(rates, float64(n)/sum*1e3)
	}
	return median(rates)
}
