package stats

import "fmt"

// Histogram is a fixed-bin streaming accumulator over a bounded value
// range. The solar field evaluator keeps one per grid cell: a year of
// 15-minute irradiance samples per cell would need gigabytes if stored
// raw, while a 1 W/m² binned histogram costs a few kilobytes and gives
// percentiles exact to the bin width.
//
// Values are clamped into [Lo, Hi]: irradiance physically saturates
// near the extraterrestrial constant and temperature within climate
// bounds, so clamping loses nothing for our inputs while keeping the
// accumulator total (no silent sample drops).
type Histogram struct {
	lo, hi float64
	width  float64
	counts []uint32
	n      uint64
}

// NewHistogram builds a histogram over [lo, hi] with the given number
// of equal-width bins. It panics on a non-positive bin count or an
// empty range — both are programming errors in the caller.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("stats: invalid histogram range [%g,%g]", lo, hi))
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]uint32, bins),
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	idx := h.binOf(v)
	h.counts[idx]++
	h.n++
}

func (h *Histogram) binOf(v float64) int {
	return binIndex(v, h.lo, h.hi, h.width, len(h.counts))
}

// Binning is Histogram's equal-width bin-layout arithmetic, exported
// so flat accumulators (the solar field's sector-sweep kernel keeps one
// raw count row per worker instead of one Histogram per cell) bin with
// bit-identical results. Construct with NewBinning; the width must come
// from the same (hi-lo)/bins division Histogram performs, or counts
// drift by one bin at edges.
type Binning struct {
	Lo, Hi, Width float64
	Bins          int
}

// NewBinning builds the layout over [lo, hi] with the given bin count.
// It panics on a non-positive bin count or an empty range, like
// NewHistogram.
func NewBinning(lo, hi float64, bins int) Binning {
	if bins <= 0 {
		panic("stats: binning needs at least one bin")
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("stats: invalid binning range [%g,%g]", lo, hi))
	}
	return Binning{Lo: lo, Hi: hi, Width: (hi - lo) / float64(bins), Bins: bins}
}

// Index returns the clamped bin index of v — the exact arithmetic
// Histogram.Add uses.
func (b Binning) Index(v float64) int {
	return binIndex(v, b.Lo, b.Hi, b.Width, b.Bins)
}

// binIndex maps a value to its clamped bin index for an equal-width
// layout over [lo, hi]. Histogram and Binning must bin identically, so
// both delegate here.
func binIndex(v, lo, hi, width float64, bins int) int {
	switch {
	case v <= lo:
		return 0
	case v >= hi:
		return bins - 1
	default:
		idx := int((v - lo) / width)
		if idx >= bins { // guard the hi-edge rounding case
			idx = bins - 1
		}
		return idx
	}
}

// N returns the number of recorded samples.
func (h *Histogram) N() uint64 { return h.n }

// Percentile returns the p-th percentile estimate (0 <= p <= 100)
// using linear interpolation inside the containing bin. The estimate
// deviates from the exact sample percentile by at most one bin width.
func (h *Histogram) Percentile(p float64) (float64, error) {
	return percentileOfCounts(h.counts, h.n, h.lo, h.hi, h.width, p)
}

// Counts exposes the raw bin counts. The slice is the histogram's own
// storage: callers must treat it as read-only.
func (h *Histogram) Counts() []uint32 { return h.counts }

// PercentileOfCounts estimates the p-th percentile from a raw count
// row with n samples over the equal-width layout [lo, hi] — the same
// interpolation Histogram.Percentile performs, for callers that
// accumulate into flat rows.
func PercentileOfCounts(counts []uint32, n uint64, lo, hi float64, p float64) (float64, error) {
	width := (hi - lo) / float64(len(counts))
	return percentileOfCounts(counts, n, lo, hi, width, p)
}

// percentileOfCounts is the single implementation of binned percentile
// interpolation. Every percentile entry point delegates here so the
// results are bit-identical regardless of which accumulator collected
// the counts.
func percentileOfCounts(counts []uint32, n uint64, lo, hi, width float64, p float64) (float64, error) {
	if n == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g out of range [0,100]", p)
	}
	target := p / 100 * float64(n)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			// Interpolate within bin i.
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (float64(i)+frac)*width, nil
		}
		cum = next
	}
	return hi, nil
}

// Mean returns the histogram-estimated mean (bin midpoints weighted by
// counts).
func (h *Histogram) Mean() (float64, error) {
	if h.n == 0 {
		return 0, ErrNoSamples
	}
	var sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		mid := h.lo + (float64(i)+0.5)*h.width
		sum += mid * float64(c)
	}
	return sum / float64(h.n), nil
}

// Reset clears all counts for reuse.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
}
