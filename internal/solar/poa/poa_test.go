package poa

import (
	"math"
	"testing"
	"time"

	"repro/internal/solar/sunpos"
)

var (
	cet   = time.FixedZone("CET", 3600)
	turin = sunpos.Site{LatDeg: 45.07, LonDeg: 7.69, AltitudeM: 240}
)

func southPlane() Plane {
	return Plane{SlopeRad: 26 * math.Pi / 180, AzimuthRad: math.Pi}
}

func noon(t *testing.T) sunpos.Position {
	t.Helper()
	p := sunpos.At(time.Date(2017, 6, 21, 13, 30, 0, 0, cet), turin)
	if !p.Up() {
		t.Fatal("noon sun should be up")
	}
	return p
}

func TestValidate(t *testing.T) {
	if err := southPlane().Validate(); err != nil {
		t.Errorf("valid plane rejected: %v", err)
	}
	bad := []Plane{
		{SlopeRad: -0.1},
		{SlopeRad: math.Pi},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plane accepted", i)
		}
	}
}

func TestCosIncidenceGeometry(t *testing.T) {
	pos := noon(t)
	// A plane tilted toward the noon sun sees a higher cosine than a
	// horizontal one whenever the sun elevation < 90-slope... but in
	// general, for a south sun at elevation h, tilting south by β
	// gives cos(i) = cos(h - β + 90..) — verify via the direct
	// formula: incidence on south-tilted plane = sin(h+β') where the
	// effective elevation rises. Simplest check: the 26° south plane
	// must beat the horizontal plane in June at Turin (sun elev 68°,
	// normal tilt brings incidence closer to 0).
	horiz := Plane{SlopeRad: 0, AzimuthRad: 0}
	south := southPlane()
	ci := south.CosIncidence(pos)
	ch := horiz.CosIncidence(pos)
	if ci <= ch {
		t.Errorf("south 26° plane cosI=%.3f should exceed horizontal %.3f at Turin noon", ci, ch)
	}
	// A north-facing steep plane sees the noon sun at grazing or
	// negative incidence.
	north := Plane{SlopeRad: 80 * math.Pi / 180, AzimuthRad: 0}
	if cn := north.CosIncidence(pos); cn > 0.3 {
		t.Errorf("north 80° plane cosI = %.3f, want small/negative", cn)
	}
	// Horizontal plane: cosI == sin(elev).
	if math.Abs(ch-math.Sin(pos.ElevRad)) > 1e-12 {
		t.Errorf("horizontal cosI %.6f != sin(elev) %.6f", ch, math.Sin(pos.ElevRad))
	}
}

func TestTransposeHorizontalIdentity(t *testing.T) {
	// On a horizontal plane, which sees no ground, the POA total must
	// reconstruct GHI = DNI*sin(h) + DHI exactly.
	pos := noon(t)
	dni, dhi := 800.0, 120.0
	ghi := dni*math.Sin(pos.ElevRad) + dhi
	horiz := Plane{SlopeRad: 0, AzimuthRad: 0}
	c := horiz.Transpose(pos, dni, dhi, ghi)
	if math.Abs(c.Total()-ghi) > 1e-9 {
		t.Errorf("horizontal POA = %.3f, want GHI %.3f", c.Total(), ghi)
	}
	if c.Reflected != 0 {
		t.Error("horizontal plane sees no ground reflection")
	}
}

func TestTransposeSouthTiltGainsInWinter(t *testing.T) {
	// Winter low sun: a 26° south tilt must collect more beam than
	// the horizontal plane.
	pos := sunpos.At(time.Date(2017, 12, 21, 12, 30, 0, 0, cet), turin)
	dni, dhi := 500.0, 60.0
	ghi := dni*math.Sin(pos.ElevRad) + dhi
	tilt := southPlane().Transpose(pos, dni, dhi, ghi)
	horiz := Plane{}.Transpose(pos, dni, dhi, ghi)
	if tilt.Beam <= horiz.Beam {
		t.Errorf("winter beam: tilted %.1f should exceed horizontal %.1f", tilt.Beam, horiz.Beam)
	}
}

func TestTransposeNightIsZero(t *testing.T) {
	night := sunpos.At(time.Date(2017, 6, 21, 1, 0, 0, 0, cet), turin)
	c := southPlane().Transpose(night, 0, 0, 0)
	if c.Total() != 0 {
		t.Errorf("night POA = %+v", c)
	}
}

func TestSunBehindPlaneNoBeam(t *testing.T) {
	// Evening sun in the west, plane facing east steeply.
	pos := sunpos.At(time.Date(2017, 6, 21, 19, 30, 0, 0, cet), turin)
	if !pos.Up() {
		t.Skip("sun already set")
	}
	east := Plane{SlopeRad: 70 * math.Pi / 180, AzimuthRad: math.Pi / 2}
	c := east.Transpose(pos, 400, 80, 300)
	if c.Beam != 0 {
		t.Errorf("beam on back side = %.1f, want 0", c.Beam)
	}
	if c.Diffuse <= 0 || c.Reflected <= 0 {
		t.Error("diffuse and reflected persist when beam is blocked")
	}
}

func TestIsotropicDiffuseTiltFactor(t *testing.T) {
	pos := noon(t)
	dhi := 100.0
	for _, slopeDeg := range []float64{0, 26, 45, 90} {
		p := Plane{SlopeRad: slopeDeg * math.Pi / 180, AzimuthRad: math.Pi}
		c := p.Transpose(pos, 0, dhi, dhi)
		want := dhi * (1 + math.Cos(p.SlopeRad)) / 2
		if math.Abs(c.Diffuse-want) > 1e-9 {
			t.Errorf("slope %g: diffuse %.2f, want %.2f", slopeDeg, c.Diffuse, want)
		}
	}
}

func TestReflectedComponent(t *testing.T) {
	pos := noon(t)
	p := southPlane()
	ghi := 900.0
	c := p.Transpose(pos, 800, 100, ghi)
	want := ghi * 0.2 * (1 - math.Cos(p.SlopeRad)) / 2
	if math.Abs(c.Reflected-want) > 1e-9 {
		t.Errorf("reflected = %.3f, want %.3f", c.Reflected, want)
	}
}

func TestComponentsNonNegativeSweep(t *testing.T) {
	// Sweep a full day × several planes; no component may go
	// negative and totals stay below ~1.4 kW/m².
	planes := []Plane{
		southPlane(),
		{SlopeRad: 1.2, AzimuthRad: 4.5},
		{SlopeRad: math.Pi / 2, AzimuthRad: 0},
	}
	day := time.Date(2017, 3, 20, 0, 0, 0, 0, cet)
	for m := 0; m < 24*60; m += 20 {
		pos := sunpos.At(day.Add(time.Duration(m)*time.Minute), turin)
		dni, dhi := 0.0, 0.0
		if pos.Up() {
			dni, dhi = 700, 100
		}
		ghi := dni*math.Max(0, math.Sin(pos.ElevRad)) + dhi
		for i, p := range planes {
			c := p.Transpose(pos, dni, dhi, ghi)
			if c.Beam < 0 || c.Diffuse < 0 || c.Reflected < 0 {
				t.Fatalf("plane %d minute %d: negative component %+v", i, m, c)
			}
			if c.Total() > 1400 {
				t.Fatalf("plane %d minute %d: unphysical POA %.0f", i, m, c.Total())
			}
		}
	}
}
