package horizon

import (
	"math"

	"repro/internal/geom"
)

// Cell readers by region-local cell and sun angle. The field evaluator
// reads the dense-index accessors only; these spell the tests'
// geometry in cells and radians.

// cellIndex converts a region-local cell to the dense index.
func (m *Map) cellIndex(c geom.Cell) int {
	return c.Y*m.region.W() + c.X
}

// HorizonTan returns the horizon tangent at the region-local cell for
// the given azimuth (radians clockwise from north).
func (m *Map) HorizonTan(c geom.Cell, azimuthRad float64) float64 {
	s := m.sectorOf(azimuthRad)
	return float64(m.tan[m.cellIndex(c)*m.sectors+s])
}

// Shadowed reports whether the beam from a sun at the given azimuth
// and elevation (radians) is blocked at the region-local cell.
func (m *Map) Shadowed(c geom.Cell, azimuthRad, elevRad float64) bool {
	if elevRad <= 0 {
		return true
	}
	return math.Tan(elevRad) < m.HorizonTan(c, azimuthRad)
}

// SVF returns the sky view factor of the region-local cell.
func (m *Map) SVF(c geom.Cell) float64 { return float64(m.svf[m.cellIndex(c)]) }

// ShadowMask returns the beam-shadow snapshot of the whole region for
// a sun at the given azimuth and elevation (radians): set cells are
// shadowed.
func (m *Map) ShadowMask(azimuthRad, elevRad float64) *geom.Mask {
	w, h := m.region.W(), m.region.H()
	out := geom.NewMask(w, h)
	if elevRad <= 0 {
		out.Fill(true)
		return out
	}
	sector := m.sectorOf(azimuthRad)
	tanElev := math.Tan(elevRad)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if m.ShadowedIdx(y*w+x, sector, tanElev) {
				out.Set(geom.Cell{X: x, Y: y}, true)
			}
		}
	}
	return out
}
