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

// cellTrace materialises the irradiance samples of one roof-local
// cell in calendar order — every step with nights as zero, or only the
// daylight steps — for stats.Summarize: the per-cell view behind the
// paper's §III-C argument that irradiance distributions are strongly
// right-skewed, making the mean unrepresentative and the 75th
// percentile the better suitability statistic.
func (e *Evaluator) cellTrace(c geom.Cell, daylightOnly bool) ([]float64, error) {
	w, h := e.cfg.Suitable.W(), e.cfg.Suitable.H()
	if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= h {
		return nil, fmt.Errorf("field: cell %v outside roof region", c)
	}
	idx := c.Y*w + c.X
	var samples []float64
	for i := range e.sky {
		st := &e.sky[i]
		if !st.up {
			if !daylightOnly {
				samples = append(samples, 0)
			}
			continue
		}
		samples = append(samples, e.cellIrr(st, idx))
	}
	return samples, nil
}

// cellSummary summarises cellTrace with exact order-statistic
// percentiles.
func (e *Evaluator) cellSummary(c geom.Cell, daylightOnly bool) (stats.Summary, error) {
	trace, err := e.cellTrace(c, daylightOnly)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(trace)
}
