// Package stats provides the distribution summaries the floorplanner
// derives from the per-cell irradiance and temperature traces: exact
// percentiles over small sample sets, streaming fixed-bin histogram
// percentiles for the full-year per-cell accumulation (where holding
// every sample of every cell would not fit in memory), and the basic
// moments used to characterise how skewed the solar distributions are
// (the paper's argument for preferring the 75th percentile over the
// mean, §III-C).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned when a summary is requested from an empty
// sample set.
var ErrNoSamples = errors.New("stats: no samples")

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks (the "C = 1" convention,
// identical to numpy's default). xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the scalar distribution descriptors used in reports
// and in the suitability ablations.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64
	Skewness float64 // Fisher-Pearson g1; 0 for symmetric data
	P25      float64
	P50      float64
	P75      float64
	P90      float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoSamples
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	s := Summary{
		N:   len(xs),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		P25: percentileSorted(sorted, 25),
		P50: percentileSorted(sorted, 50),
		P75: percentileSorted(sorted, 75),
		P90: percentileSorted(sorted, 90),
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var m2, m3 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= float64(len(xs))
	m3 /= float64(len(xs))
	s.StdDev = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
