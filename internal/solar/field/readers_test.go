package field

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/stats"
)

// CellIrradiance returns the plane-of-array irradiance at the
// roof-local cell for calendar step i, accounting for the cell's
// horizon shadow and sky view factor.
func (e *Evaluator) CellIrradiance(i int, c geom.Cell) float64 {
	st := &e.sky[i]
	if !st.up {
		return 0
	}
	return e.cellIrr(st, c.Y*e.cfg.Suitable.W()+c.X)
}

// CellSummary streams the full irradiance-sample distribution of one
// roof-local cell through a fixed-size accumulator and summarises it —
// the per-cell view behind the paper's §III-C argument that irradiance
// distributions are strongly right-skewed, making the mean
// unrepresentative and the 75th percentile the better suitability
// statistic.
//
// The moments and extrema are exact (bit-identical to materialising
// the calendar-ordered sample vector and running stats.Summarize);
// the percentiles are histogram estimates on the statistics pass's
// irradiance binning (2 W/m² resolution, cumulative-count convention
// — the same convention the suitability statistics use, rather than
// the order-statistic interpolation of stats.Summarize). At paper
// scale this replaces a ~35k-sample allocation and sort per call with
// one histogram.
func (e *Evaluator) CellSummary(c geom.Cell, daylightOnly bool) (stats.Summary, error) {
	w, h := e.cfg.Suitable.W(), e.cfg.Suitable.H()
	if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= h {
		return stats.Summary{}, fmt.Errorf("field: cell %v outside roof region", c)
	}
	idx := c.Y*w + c.X
	// Map summary-sample positions to calendar steps without
	// materialising values: with daylightOnly the day steps are
	// enumerated in calendar order, otherwise every step contributes
	// (nights as zero).
	var steps []int32
	n := len(e.sky)
	if daylightOnly {
		steps = make([]int32, 0, e.daySteps)
		for i := range e.sky {
			if e.sky[i].up {
				steps = append(steps, int32(i))
			}
		}
		n = len(steps)
	}
	at := func(i int) float64 {
		if steps != nil {
			i = int(steps[i])
		}
		st := &e.sky[i]
		if !st.up {
			return 0
		}
		return e.cellIrr(st, idx)
	}
	return stats.SummarizeBinned(gLo, gHi, gBins, n, at)
}
