package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail read off fewer samples is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailCandidates are the percentiles pickTail chooses from, highest first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// pickTail returns the highest candidate percentile that still has
// minBeyond samples above it, or 50 when even the median has not.
func pickTail(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// sortDurations returns an ascending copy.
func sortDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank percentile of an ascending sample; 0 for
// an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// medianDuration is the nearest-rank median of an unsorted sample.
func medianDuration(d []time.Duration) time.Duration {
	return percentile(sortDurations(d), 50)
}

// medianFloat is the median of an unsorted sample (mean of the two middle
// values for an even count); 0 for an empty one.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// selfTime is what is left of a parent's time once the children it is
// known to call on the same bytes are taken out. Parent and children are
// medians of separate timings, so noise can push the result below zero;
// it is reported as measured.
func selfTime(parent float64, children ...float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ns(d time.Duration) float64 { return float64(d) }

// refMean is the benchmark's own reference for the bundle rule: a float64
// sum per coordinate scaled by 1/n, rounded once to float32. For the
// integer-valued rows the ingest workloads send, the float64 sum is exact
// in any order, so this is the only value a correct server can commit.
func refMean(rows [][]float32) []float32 {
	sum := make([]float64, len(rows[0]))
	for _, row := range rows {
		for j, v := range row {
			sum[j] += float64(v)
		}
	}
	inv := 1 / float64(len(rows))
	out := make([]float32, len(sum))
	for j, s := range sum {
		out[j] = float32(s * inv)
	}
	return out
}

// refMedian is the reference for the coordinate-wise median rule: sort
// each column, take the middle value or the float64 mean of the two middle
// values.
func refMedian(rows [][]float32) []float32 {
	n := len(rows)
	col := make([]float64, n)
	out := make([]float32, len(rows[0]))
	for j := range out {
		for i, row := range rows {
			col[i] = float64(row[j])
		}
		sort.Float64s(col)
		if n%2 == 1 {
			out[j] = float32(col[n/2])
		} else {
			out[j] = float32((col[n/2-1] + col[n/2]) / 2)
		}
	}
	return out
}
