// Package weather supplies the real-sky inputs of the simulation: a
// clear-sky index (the ratio of measured to clear-sky global
// horizontal irradiance) and the ambient temperature, per timestep.
//
// The paper retrieves these from personal/third-party weather stations
// (Weather Underground, ref. [16]); those traces are not
// redistributable, so this package implements a deterministic
// synthetic generator with a parameterised climate: seasonal and
// diurnal temperature harmonics, an autocorrelated cloud process with
// distinct day types (clear / mixed / overcast), and reproducible
// seeding.
package weather

import (
	"fmt"
	"math"
	"time"
)

// Sample is the weather state at one instant.
type Sample struct {
	// ClearSkyIndex is measured GHI divided by clear-sky GHI,
	// typically in [0.05, 1.1] (slightly above 1 under cloud-edge
	// enhancement).
	ClearSkyIndex float64
	// AmbientC is the ambient air temperature in °C.
	AmbientC float64
}

// Climate parameterises the synthetic generator.
type Climate struct {
	// AnnualMeanC is the annual mean temperature (Turin ≈ 13 °C).
	AnnualMeanC float64
	// SeasonalAmpC is the half-swing of the seasonal harmonic
	// (Turin ≈ 11 °C: January ≈ 2 °C, July ≈ 24 °C).
	SeasonalAmpC float64
	// DiurnalAmpC is the half-swing of the day/night harmonic.
	DiurnalAmpC float64
	// CloudySeasonBias shifts cloudiness seasonally: positive values
	// make winter cloudier than summer (Po valley pattern).
	CloudySeasonBias float64
	// MeanClearness in [0,1] sets the overall fraction of clear
	// weather; 0.6 reproduces ≈1300 kWh/m²·yr real-sky GHI in Turin
	// from the ≈1750 clear-sky bound.
	MeanClearness float64
}

// Turin is a Po-valley climate preset consistent with the PVGIS
// figures for the paper's site.
var Turin = Climate{
	AnnualMeanC:      13.0,
	SeasonalAmpC:     11.0,
	DiurnalAmpC:      4.5,
	CloudySeasonBias: 0.15,
	MeanClearness:    0.62,
}

// Validate checks the climate parameters.
func (c Climate) Validate() error {
	if c.MeanClearness < 0 || c.MeanClearness > 1 {
		return fmt.Errorf("weather: mean clearness %g outside [0,1]", c.MeanClearness)
	}
	if c.SeasonalAmpC < 0 || c.DiurnalAmpC < 0 {
		return fmt.Errorf("weather: negative temperature amplitude")
	}
	return nil
}

// Synthetic is a deterministic weather generator. It is a pure
// function of (seed, instant): no internal state, so it can be
// sampled in any order and from concurrent goroutines.
type Synthetic struct {
	seed    uint64
	climate Climate
}

// NewSynthetic builds a generator for the given seed and climate.
func NewSynthetic(seed int64, climate Climate) (*Synthetic, error) {
	if err := climate.Validate(); err != nil {
		return nil, err
	}
	return &Synthetic{seed: uint64(seed), climate: climate}, nil
}

// Fingerprint identifies the realisation by a compact, stable string:
// equal fingerprints imply identical Sample results for every instant,
// and the persistent field-artifact cache keys per-cell statistics on
// it. A Synthetic realisation is a pure function of the seed and the
// climate parameters, so encoding them exactly (float bit patterns
// via 'x' formatting) identifies it.
func (s *Synthetic) Fingerprint() string {
	c := s.climate
	return fmt.Sprintf("synthetic|%d|%x|%x|%x|%x|%x",
		s.seed, c.AnnualMeanC, c.SeasonalAmpC, c.DiurnalAmpC, c.CloudySeasonBias, c.MeanClearness)
}

// splitmix64 is the standard avalanche mixer; good enough to
// decorrelate lattice noise across days and slots.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform float in [0,1) derived from the seed and two
// lattice coordinates.
func (s *Synthetic) unit(a, b uint64) float64 {
	h := splitmix64(s.seed ^ splitmix64(a*0x9e3779b97f4a7c15^b))
	return float64(h>>11) / float64(1<<53)
}

// smooth interpolates value noise on a 1-D lattice with smoothstep,
// giving an autocorrelated process without stored state.
func (s *Synthetic) smooth(stream uint64, pos float64) float64 {
	i := math.Floor(pos)
	f := pos - i
	f = f * f * (3 - 2*f) // smoothstep
	a := s.unit(stream, uint64(int64(i)))
	b := s.unit(stream, uint64(int64(i)+1))
	return a*(1-f) + b*f
}

const (
	streamDayType = 1
	streamIntra   = 2
	streamTempDay = 3
)

// dayIndex maps an instant to a day coordinate shared by the whole
// civil day.
func dayIndex(t time.Time) int64 {
	return t.Unix() / 86400
}

// Sample returns the weather at instant t. It is deterministic: the
// same instant always returns the same sample (the pipeline streams
// the calendar multiple times).
func (s *Synthetic) Sample(t time.Time) Sample {
	day := dayIndex(t)
	doy := float64(t.YearDay())
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600

	// --- Cloudiness ---------------------------------------------------
	// Day-type noise, autocorrelated over ≈3-day synoptic timescales.
	dayNoise := s.smooth(streamDayType, float64(day)/3)
	// Seasonal bias: winter days pushed toward cloudy.
	seasonal := math.Cos(2 * math.Pi * (doy - 15) / 365) // +1 mid-January
	clearness := s.climate.MeanClearness - s.climate.CloudySeasonBias*seasonal
	// Map noise → day regime around the climate clearness.
	regime := dayNoise + clearness - 0.5
	var kcDay float64
	switch {
	case regime > 0.62: // clear day
		kcDay = 0.95 + 0.10*s.unit(streamDayType+10, uint64(day))
	case regime > 0.35: // mixed day
		kcDay = 0.45 + 0.45*s.unit(streamDayType+11, uint64(day))
	default: // overcast day
		kcDay = 0.10 + 0.25*s.unit(streamDayType+12, uint64(day))
	}
	// Intra-day fluctuation, autocorrelated over ≈2 h; stronger on
	// mixed days (broken clouds), mild on clear/overcast days.
	fluct := s.smooth(streamIntra, float64(day)*12+hour/2) - 0.5
	amp := 0.5 - math.Abs(kcDay-0.55) // peaks for mid-range kcDay
	if amp < 0.05 {
		amp = 0.05
	}
	kc := kcDay + fluct*amp
	if kc < 0.05 {
		kc = 0.05
	}
	if kc > 1.1 {
		kc = 1.1
	}

	// --- Temperature --------------------------------------------------
	seasonalT := s.climate.AnnualMeanC - s.climate.SeasonalAmpC*math.Cos(2*math.Pi*(doy-28)/365)
	diurnalT := s.climate.DiurnalAmpC * math.Cos(2*math.Pi*(hour-14.5)/24)
	dayAnomaly := (s.smooth(streamTempDay, float64(day)/4) - 0.5) * 6 // ±3 °C synoptic swing
	cloudCooling := -(1 - kcDay) * 2.5                                // overcast days run cooler
	amb := seasonalT + diurnalT + dayAnomaly + cloudCooling

	return Sample{ClearSkyIndex: kc, AmbientC: amb}
}

// CellTemperature converts ambient temperature and local irradiance
// into the actual module temperature per the paper's §III-B1 model:
// T_act = T + k·G with k the ratio of roof absorptivity to the
// combined convective/radiative coefficient (the paper cites
// h_c = 15 W/(K·m²)).
func CellTemperature(ambientC, irradiance, k float64) float64 {
	return ambientC + k*irradiance
}

// DefaultThermalK is the default G→ΔT coupling in K·m²/W. With the
// paper's h_c = 15 W/(K·m²) and an absorptivity of ≈0.5 it matches
// the NOCT-derived 0.034 K·m²/W of typical glass-backsheet modules.
const DefaultThermalK = 0.034
