package decomp

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/solar/sunpos"
)

var (
	cet   = time.FixedZone("CET", 3600)
	turin = sunpos.Site{LatDeg: 45.07, LonDeg: 7.69, AltitudeM: 240}
)

func noonPos(t *testing.T) sunpos.Position {
	t.Helper()
	p := sunpos.At(time.Date(2017, 6, 21, 13, 30, 0, 0, cet), turin)
	if !p.Up() {
		t.Fatal("expected daytime position")
	}
	return p
}

func TestErbsDiffuseFractionAnchors(t *testing.T) {
	// Overcast (low kt): nearly all diffuse. Clear (high kt): the
	// correlation floors at 0.165.
	if kd := ErbsDiffuseFraction(0.05); kd < 0.98 || kd > 1 {
		t.Errorf("kd(0.05) = %.3f, want ≈ 0.995", kd)
	}
	if kd := ErbsDiffuseFraction(0.9); kd != 0.165 {
		t.Errorf("kd(0.9) = %.3f, want 0.165", kd)
	}
	if kd := ErbsDiffuseFraction(-0.2); kd != 1 {
		t.Errorf("kd(neg) = %.3f, want 1", kd)
	}
	// Continuity at the branch points.
	if d := math.Abs(ErbsDiffuseFraction(0.22) - ErbsDiffuseFraction(0.2200001)); d > 0.01 {
		t.Errorf("kd discontinuous at kt=0.22: Δ=%.4f", d)
	}
	if d := math.Abs(ErbsDiffuseFraction(0.80) - ErbsDiffuseFraction(0.8000001)); d > 0.03 {
		t.Errorf("kd discontinuous at kt=0.80: Δ=%.4f", d)
	}
}

func TestErbsDiffuseFractionBounded(t *testing.T) {
	f := func(raw uint16) bool {
		kt := float64(raw) / 65535 * 1.2
		kd := ErbsDiffuseFraction(kt)
		return kd >= 0.1 && kd <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErbsEnergyConservation(t *testing.T) {
	// DNI*sin(h) + DHI must reconstruct GHI.
	pos := noonPos(t)
	for _, ghi := range []float64{50, 200, 500, 800, 950} {
		s := Erbs(ghi, pos)
		recon := s.DNI*math.Sin(pos.ElevRad) + s.DHI
		if math.Abs(recon-ghi) > 1e-9 {
			t.Errorf("GHI %g: reconstruction %.3f", ghi, recon)
		}
		if s.DNI < 0 || s.DHI < 0 {
			t.Errorf("GHI %g: negative component %+v", ghi, s)
		}
	}
}

func TestErbsNightAndZeroGHI(t *testing.T) {
	night := sunpos.At(time.Date(2017, 6, 21, 1, 0, 0, 0, cet), turin)
	if s := Erbs(500, night); s != (Split{}) {
		t.Errorf("night split = %+v, want zero", s)
	}
	if s := Erbs(0, noonPos(t)); s != (Split{}) {
		t.Errorf("zero-GHI split = %+v, want zero", s)
	}
	if s := Erbs(-10, noonPos(t)); s != (Split{}) {
		t.Errorf("negative-GHI split = %+v, want zero", s)
	}
}

func TestErbsGrazingSunAllDiffuse(t *testing.T) {
	// Just after sunrise the split must fall back to all-diffuse
	// rather than amplifying by 1/sin(h).
	day := time.Date(2017, 6, 21, 0, 0, 0, 0, cet)
	var grazing sunpos.Position
	found := false
	for m := 0; m < 24*60; m++ {
		p := sunpos.At(day.Add(time.Duration(m)*time.Minute), turin)
		if p.Up() && math.Sin(p.ElevRad) < 0.02 {
			grazing, found = p, true
			break
		}
	}
	if !found {
		t.Skip("no grazing sample found at 1-minute resolution")
	}
	s := Erbs(30, grazing)
	if s.DNI != 0 || s.DHI != 30 {
		t.Errorf("grazing split = %+v, want all diffuse", s)
	}
}

func TestErbsCloudyVsClearShare(t *testing.T) {
	pos := noonPos(t)
	cloudy := Erbs(150, pos) // kt ≈ 0.12
	clear := Erbs(900, pos)  // kt ≈ 0.75
	cloudyShare := cloudy.DHI / 150
	clearShare := clear.DHI / 900
	if cloudyShare < 0.9 {
		t.Errorf("cloudy diffuse share = %.2f, want > 0.9", cloudyShare)
	}
	if clearShare > 0.4 {
		t.Errorf("clear diffuse share = %.2f, want < 0.4", clearShare)
	}
	if clear.DNI < 500 {
		t.Errorf("clear DNI = %.0f, want substantial beam", clear.DNI)
	}
}

func TestErbsBoundedProperty(t *testing.T) {
	pos := noonPos(t)
	f := func(rawGHI uint16) bool {
		ghi := float64(rawGHI) / 65535 * 1100
		s := Erbs(ghi, pos)
		// DNI can't exceed the solar constant after clamping kt.
		return s.DNI >= 0 && s.DHI >= 0 && s.DHI <= ghi+1e-9 && s.DNI <= 1450
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
