package weather

import (
	"math"
	"testing"
	"time"
)

var cet = time.FixedZone("CET", 3600)

func newTurin(t *testing.T, seed int64) *Synthetic {
	t.Helper()
	s, err := NewSynthetic(seed, Turin)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClimateValidation(t *testing.T) {
	bad := Turin
	bad.MeanClearness = 1.5
	if _, err := NewSynthetic(1, bad); err == nil {
		t.Error("clearness > 1 must be rejected")
	}
	bad = Turin
	bad.SeasonalAmpC = -1
	if _, err := NewSynthetic(1, bad); err == nil {
		t.Error("negative amplitude must be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	a := newTurin(t, 42)
	b := newTurin(t, 42)
	c := newTurin(t, 43)
	ts := time.Date(2017, 5, 14, 11, 15, 0, 0, cet)
	sa, sb, sc := a.Sample(ts), b.Sample(ts), c.Sample(ts)
	if sa != sb {
		t.Errorf("same seed, same instant: %+v vs %+v", sa, sb)
	}
	if sa == sc {
		t.Error("different seeds should almost surely differ")
	}
	// Random-access order must not matter (pure function).
	later := a.Sample(ts.Add(31 * 24 * time.Hour))
	again := a.Sample(ts)
	if sa != again {
		t.Errorf("sampling order changed the result: %+v vs %+v", sa, again)
	}
	_ = later
}

// TestFingerprint: the fingerprint keys cached field statistics, so it
// must be equal for equal realisations and differ when the seed or any
// climate parameter does.
func TestFingerprint(t *testing.T) {
	base := newTurin(t, 42).Fingerprint()
	if again := newTurin(t, 42).Fingerprint(); again != base {
		t.Errorf("same seed and climate: %q vs %q", again, base)
	}
	if other := newTurin(t, 43).Fingerprint(); other == base {
		t.Error("a different seed must change the fingerprint")
	}
	for name, mutate := range map[string]func(*Climate){
		"annual mean":  func(c *Climate) { c.AnnualMeanC += 0.5 },
		"seasonal amp": func(c *Climate) { c.SeasonalAmpC += 0.5 },
		"diurnal amp":  func(c *Climate) { c.DiurnalAmpC += 0.5 },
		"season bias":  func(c *Climate) { c.CloudySeasonBias += 0.01 },
		"clearness":    func(c *Climate) { c.MeanClearness -= 0.01 },
	} {
		c := Turin
		mutate(&c)
		s, err := NewSynthetic(42, c)
		if err != nil {
			t.Fatal(err)
		}
		if s.Fingerprint() == base {
			t.Errorf("%s: a different climate must change the fingerprint", name)
		}
	}
}

func TestKcBounds(t *testing.T) {
	s := newTurin(t, 7)
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, cet)
	for i := 0; i < 365*24; i++ {
		smp := s.Sample(start.Add(time.Duration(i) * time.Hour))
		if smp.ClearSkyIndex < 0.05 || smp.ClearSkyIndex > 1.1 {
			t.Fatalf("hour %d: kc = %g outside [0.05, 1.1]", i, smp.ClearSkyIndex)
		}
		if smp.AmbientC < -25 || smp.AmbientC > 45 {
			t.Fatalf("hour %d: ambient %g outside climate bounds", i, smp.AmbientC)
		}
	}
}

func TestSeasonalTemperatureShape(t *testing.T) {
	s := newTurin(t, 3)
	meanOf := func(month time.Month) float64 {
		var sum float64
		n := 0
		for d := 1; d <= 28; d++ {
			for h := 0; h < 24; h += 3 {
				sum += s.Sample(time.Date(2017, month, d, h, 0, 0, 0, cet)).AmbientC
				n++
			}
		}
		return sum / float64(n)
	}
	jan, jul := meanOf(time.January), meanOf(time.July)
	if jul-jan < 15 {
		t.Errorf("seasonal swing = %.1f °C, want > 15 (Jan %.1f, Jul %.1f)", jul-jan, jan, jul)
	}
	if jan < -8 || jan > 10 {
		t.Errorf("January mean %.1f °C implausible for Turin", jan)
	}
	if jul < 18 || jul > 32 {
		t.Errorf("July mean %.1f °C implausible for Turin", jul)
	}
}

func TestDiurnalTemperatureShape(t *testing.T) {
	s := newTurin(t, 5)
	// Average the 04:00 and 14:30 temperatures over a summer month:
	// afternoon must be warmer by several degrees.
	var night, day float64
	for d := 1; d <= 30; d++ {
		night += s.Sample(time.Date(2017, 6, d, 4, 0, 0, 0, cet)).AmbientC
		day += s.Sample(time.Date(2017, 6, d, 14, 30, 0, 0, cet)).AmbientC
	}
	night /= 30
	day /= 30
	if day-night < 5 {
		t.Errorf("diurnal swing = %.1f °C, want > 5", day-night)
	}
}

func TestCloudAutocorrelation(t *testing.T) {
	// kc 15 minutes apart must be much closer on average than kc on
	// random distinct days (the process is autocorrelated, not white).
	s := newTurin(t, 11)
	var near, far float64
	n := 0
	for d := 0; d < 300; d += 3 {
		base := time.Date(2017, 1, 1, 12, 0, 0, 0, cet).AddDate(0, 0, d)
		k0 := s.Sample(base).ClearSkyIndex
		k1 := s.Sample(base.Add(15 * time.Minute)).ClearSkyIndex
		k2 := s.Sample(base.AddDate(0, 0, 37)).ClearSkyIndex
		near += math.Abs(k1 - k0)
		far += math.Abs(k2 - k0)
		n++
	}
	near /= float64(n)
	far /= float64(n)
	if near >= far {
		t.Errorf("15-min kc delta %.3f should be well below 37-day delta %.3f", near, far)
	}
}

func TestDayTypeVariety(t *testing.T) {
	// Over a year the generator must produce clear, mixed and
	// overcast days in non-trivial proportions.
	s := newTurin(t, 13)
	var clear, mixed, overcast int
	for d := 0; d < 365; d++ {
		kc := s.Sample(time.Date(2017, 1, 1, 12, 0, 0, 0, cet).AddDate(0, 0, d)).ClearSkyIndex
		switch {
		case kc > 0.8:
			clear++
		case kc > 0.4:
			mixed++
		default:
			overcast++
		}
	}
	for name, n := range map[string]int{"clear": clear, "mixed": mixed, "overcast": overcast} {
		if n < 365/20 {
			t.Errorf("only %d %s days in a year — degenerate climate", n, name)
		}
	}
}

func TestWinterCloudierThanSummer(t *testing.T) {
	s := newTurin(t, 17)
	meanKc := func(m time.Month) float64 {
		var sum float64
		for d := 1; d <= 28; d++ {
			sum += s.Sample(time.Date(2017, m, d, 12, 0, 0, 0, cet)).ClearSkyIndex
		}
		return sum / 28
	}
	if meanKc(time.July) <= meanKc(time.December) {
		t.Errorf("July kc %.2f should exceed December %.2f (CloudySeasonBias)",
			meanKc(time.July), meanKc(time.December))
	}
}

func TestCellTemperature(t *testing.T) {
	// T_act = T + k G: datasheet-style anchor, 800 W/m² at k=0.034
	// adds ≈ 27 °C.
	got := CellTemperature(20, 800, DefaultThermalK)
	if math.Abs(got-(20+0.034*800)) > 1e-12 {
		t.Errorf("CellTemperature = %g", got)
	}
	if CellTemperature(20, 0, DefaultThermalK) != 20 {
		t.Error("zero irradiance must leave ambient unchanged")
	}
}
