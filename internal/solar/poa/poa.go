// Package poa transposes decomposed irradiance (DNI, DHI, GHI) onto a
// tilted plane of array — the roof surface carrying the PV modules.
// It uses the isotropic sky model plus ground-reflected irradiance
// with the standard urban albedo, following the GIS solar-model chain
// of Šúri & Hofierka (paper ref. [17]).
package poa

import (
	"fmt"
	"math"

	"repro/internal/solar/sunpos"
)

// albedo is the ground reflectance feeding the reflected component
// (the standard urban default).
const albedo = 0.2

// Plane describes the receiving surface.
type Plane struct {
	// SlopeRad is the tilt from horizontal in radians.
	SlopeRad float64
	// AzimuthRad is the azimuth of the downslope direction (equals
	// the azimuth of the surface normal's horizontal projection),
	// radians clockwise from north.
	AzimuthRad float64
}

// Validate checks physical plausibility.
func (p Plane) Validate() error {
	if p.SlopeRad < 0 || p.SlopeRad > math.Pi/2 {
		return fmt.Errorf("poa: slope %g rad outside [0, π/2]", p.SlopeRad)
	}
	return nil
}

// CosIncidence returns the cosine of the angle between the sun
// direction and the plane normal (negative when the sun is behind the
// plane).
func (p Plane) CosIncidence(pos sunpos.Position) float64 {
	se, sn, su := pos.Vector()
	ne := math.Sin(p.SlopeRad) * math.Sin(p.AzimuthRad)
	nn := math.Sin(p.SlopeRad) * math.Cos(p.AzimuthRad)
	nu := math.Cos(p.SlopeRad)
	return se*ne + sn*nn + su*nu
}

// Components are the plane-of-array irradiance contributions in W/m².
// The shading model applies per-cell factors to them: a shadowed cell
// loses Beam entirely, keeps Diffuse scaled by its sky view factor,
// and keeps Reflected.
type Components struct {
	// Beam is the direct component on the plane.
	Beam float64
	// Diffuse is the sky-diffuse component on the plane.
	Diffuse float64
	// Reflected is the ground-reflected component.
	Reflected float64
}

// Total returns the unshaded plane-of-array irradiance.
func (c Components) Total() float64 { return c.Beam + c.Diffuse + c.Reflected }

// Transpose computes the plane-of-array components for the given sun
// position and decomposed irradiance. ghi is used for the reflected
// component; dni and dhi for beam and diffuse.
func (p Plane) Transpose(pos sunpos.Position, dni, dhi, ghi float64) Components {
	var out Components
	cosI := p.CosIncidence(pos)
	if pos.Up() && cosI > 0 {
		out.Beam = dni * cosI
	}
	svfTilt := (1 + math.Cos(p.SlopeRad)) / 2
	out.Diffuse = dhi * svfTilt
	out.Reflected = ghi * albedo * (1 - math.Cos(p.SlopeRad)) / 2
	return out
}
