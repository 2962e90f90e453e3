package field

import (
	"repro/internal/stats"
	"repro/internal/weather"
)

// statsPercentileScalar runs the pre-sector-sweep scalar reference on
// the calling goroutine: the calendar-ordered per-(cell, timestep)
// loop with an explicit shadow test per sample. Equivalence tests pin
// the sector kernel against it — histogram-derived outputs (GPct,
// TactPct, Samples) must match bit-for-bit since both accumulate
// identical counts; GMean may differ by float rounding only, because
// the kernel sums in its documented sector order rather than calendar
// order.
func (e *Evaluator) statsPercentileScalar(pct float64) (*CellStats, error) {
	cs, err := e.statsFrame(pct)
	if err != nil || len(e.suitIdx) == 0 {
		return cs, err
	}
	e.statsChunkScalar(cs, e.suitIdx)
	return cs, nil
}

// statsChunkScalar is the retired hot path, kept as the equivalence
// reference for the sector kernel: it accumulates one contiguous run
// of suitable cells into one histogram per cell and quantity across
// the whole calendar in calendar order, testing the horizon shadow per
// (cell, timestep). A night step adds irradiance 0 and the ambient
// temperature.
func (e *Evaluator) statsChunkScalar(cs *CellStats, cells []int32) {
	gHist := make([]*stats.Histogram, len(cells))
	tHist := make([]*stats.Histogram, len(cells))
	for j := range cells {
		gHist[j] = stats.NewHistogram(gLo, gHi, gBins)
		tHist[j] = stats.NewHistogram(tLo, tHi, tBins)
	}
	gSum := make([]float64, len(cells))

	const k = weather.DefaultThermalK
	for i := range e.sky {
		st := &e.sky[i]
		for j, idx := range cells {
			if !st.up {
				gHist[j].Add(0)
				tHist[j].Add(st.ambient)
				continue
			}
			g := e.cellIrr(st, int(idx))
			gHist[j].Add(g)
			tHist[j].Add(st.ambient + k*g)
			gSum[j] += g
		}
	}

	for j, idx := range cells {
		gp, err := gHist[j].Percentile(cs.Pct)
		if err != nil {
			continue
		}
		tp, err := tHist[j].Percentile(cs.Pct)
		if err != nil {
			continue
		}
		cs.GPct[idx] = gp
		cs.TactPct[idx] = tp
		cs.GMean[idx] = gSum[j] / float64(cs.Samples)
	}
}
