// Package decomp splits measured global horizontal irradiance (GHI)
// into its direct-normal (DNI) and diffuse-horizontal (DHI)
// components. Weather stations — the paper's real-sky data source
// (§IV) — typically report GHI only, while the plane-of-array
// transposition and the shading model need the split: shadows remove
// the beam component but leave most of the diffuse sky.
//
// The model is the Erbs et al. (1982) clearness-index correlation.
package decomp

import (
	"math"

	"repro/internal/solar/sunpos"
)

// Split holds the decomposed irradiance components in W/m².
type Split struct {
	DNI float64 // direct normal
	DHI float64 // diffuse horizontal
}

// minSinElev guards the DNI division: below ≈ 1.7° solar elevation the
// geometric amplification 1/sin(h) becomes unstable and measured GHI
// is dominated by diffuse light anyway.
const minSinElev = 0.03

// ErbsDiffuseFraction returns the diffuse fraction kd = DHI/GHI for
// clearness index kt per the Erbs correlation.
func ErbsDiffuseFraction(kt float64) float64 {
	switch {
	case kt < 0:
		return 1
	case kt <= 0.22:
		return 1 - 0.09*kt
	case kt <= 0.80:
		return 0.9511 - 0.1604*kt + 4.388*kt*kt - 16.638*kt*kt*kt + 12.336*kt*kt*kt*kt
	default:
		return 0.165
	}
}

// Erbs decomposes GHI for the given sun position using the Erbs
// diffuse-fraction correlation. It returns a zero Split when the sun
// is below the horizon or GHI is non-positive.
func Erbs(ghi float64, pos sunpos.Position) Split {
	if ghi <= 0 || !pos.Up() {
		return Split{}
	}
	g0h := pos.ExtraterrestrialHorizontal()
	if g0h <= 0 {
		return Split{DHI: ghi}
	}
	kt := ghi / g0h
	if kt > 1 {
		kt = 1 // measurement spikes above extraterrestrial are clamped
	}
	kd := ErbsDiffuseFraction(kt)
	dhi := kd * ghi
	sinH := math.Sin(pos.ElevRad)
	if sinH < minSinElev {
		return Split{DHI: ghi} // all diffuse at grazing sun
	}
	dni := (ghi - dhi) / sinH
	if dni < 0 {
		dni = 0
	}
	return Split{DNI: dni, DHI: dhi}
}
