// Package floorplan implements the paper's primary contribution: the
// greedy GIS-driven floorplanning algorithm (§III) that places N
// identical PV modules on the suitable area of a roof so as to
// maximise the yearly extracted energy, together with the
// "traditional" compact baseline it is compared against (§V-B) and
// the energy evaluator that scores both.
//
// The pipeline is:
//
//	field.CellStats ──ComputeSuitability──► Suitability matrix S[i,j]
//	S + suitable mask ──Plan / PlanCompact──► Placement (series-first)
//	Placement + field.Evaluator ──Evaluate──► yearly MWh, wiring loss
package floorplan

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/solar/field"
)

// SuitabilityOptions tunes the suitability metric. The zero value is
// the paper's §III-C choice: the 75th-percentile irradiance scaled by
// a temperature factor that tracks dP_max/dT.
type SuitabilityOptions struct {
	// UseMean ranks by mean irradiance instead of the percentile —
	// the alternative the paper rejects because the skewed G
	// distribution makes the average unrepresentative (ablation A1).
	UseMean bool
}

// The temperature factor f(T) = tempCoef0 − tempCoefPerK·T_act is the
// PV-MF165EB3 power-model factor (§III-B1).
const (
	tempCoef0    = 1.12
	tempCoefPerK = 0.0048
)

// Suitability is the per-cell placement desirability matrix S[i,j]
// (row-major; NaN marks cells without statistics).
type Suitability struct {
	W, H int
	S    []float64
}

// At returns the suitability of a roof-local cell (NaN if invalid).
func (s *Suitability) At(c geom.Cell) float64 { return s.S[c.Y*s.W+c.X] }

// Valid reports whether the cell has a usable suitability value.
func (s *Suitability) Valid(c geom.Cell) bool { return !math.IsNaN(s.At(c)) }

// ComputeSuitability distils the per-cell trace statistics into the
// suitability matrix: s_ij = p75(G_ij) · f(T_ij), where f tracks the
// module power model's temperature derating (§III-C). Irradiance
// dominates (5x power swing over the G range vs ±20% for T), so T
// enters only as the corrective factor.
func ComputeSuitability(cs *field.CellStats, opts SuitabilityOptions) (*Suitability, error) {
	if cs == nil || cs.W <= 0 || cs.H <= 0 {
		return nil, fmt.Errorf("floorplan: nil or empty cell stats")
	}
	out := &Suitability{W: cs.W, H: cs.H, S: make([]float64, cs.W*cs.H)}
	for i := range out.S {
		g := cs.GPct[i]
		if opts.UseMean {
			g = cs.GMean[i]
		}
		if math.IsNaN(g) {
			out.S[i] = math.NaN()
			continue
		}
		f := tempCoef0 - tempCoefPerK*cs.TactPct[i]
		if f < 0 {
			f = 0
		}
		out.S[i] = g * f
	}
	return out, nil
}
