package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: with fewer, the value is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// tailLadder lists the percentiles tried for a workload's tail, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// reportable reports whether the p-th percentile of n samples has at
// least minBeyond samples above it.
func reportable(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n > 0 && n-rank >= minBeyond
}

// tail returns the highest percentile of tailLadder that is reportable
// for xs, with its value. With too few samples for any of them it falls
// back to the median (p = 50).
func tail(xs []float64) (p, value float64) {
	for _, p := range tailLadder {
		if reportable(len(xs), p) {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// quartiles returns the first and third quartiles of xs with the
// method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which the acceptance checks use.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
