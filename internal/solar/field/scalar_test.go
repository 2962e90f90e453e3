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
// of suitable cells across the whole calendar in calendar order,
// testing the horizon shadow per (cell, timestep).
func (e *Evaluator) statsChunkScalar(cs *CellStats, cells []int32) {
	gBank := stats.NewHistogramBank(len(cells), gLo, gHi, gBins)
	tBank := stats.NewHistogramBank(len(cells), tLo, tHi, tBins)
	gSum := make([]float64, len(cells))

	const k = weather.DefaultThermalK
	for i := range e.sky {
		st := &e.sky[i]
		if !st.up {
			continue
		}
		for j, idx := range cells {
			g := e.cellIrr(st, int(idx))
			gBank.Add(j, g)
			tBank.Add(j, st.ambient+k*g)
			gSum[j] += g
		}
	}

	withNight := e.night.count > 0
	for j, idx := range cells {
		if withNight {
			// Nights contribute irradiance 0 and the shared ambient
			// distribution; fold them in once per cell in O(bins).
			gBank.AddBulk(j, 0, uint32(e.night.count))
			if err := tBank.MergeHistogram(j, e.night.tact); err != nil {
				// Impossible by construction (identical bin layout);
				// skip the cell rather than corrupt it.
				continue
			}
		}
		gp, err := gBank.Percentile(j, cs.Pct)
		if err != nil {
			continue
		}
		tp, err := tBank.Percentile(j, cs.Pct)
		if err != nil {
			continue
		}
		cs.GPct[idx] = gp
		cs.TactPct[idx] = tp
		cs.GMean[idx] = gSum[j] / float64(cs.Samples)
	}
}
