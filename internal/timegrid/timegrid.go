// Package timegrid defines the simulation calendar: the sequence of
// evenly spaced instants over which the solar field is evaluated. The
// paper simulates one year at 15-minute intervals (§IV); tests and
// quick runs use coarser steps and day strides, so the grid is fully
// parameterised but always deterministic and timezone-explicit.
package timegrid

import (
	"fmt"
	"time"
)

// Grid describes an evenly sampled simulation period. Construct one
// with New or with the Year convenience helper.
type Grid struct {
	start     time.Time
	step      time.Duration
	stepsDay  int // samples per simulated day
	days      int // number of simulated days
	dayStride int // simulate every dayStride-th day (1 = every day)
}

// New builds a grid starting at start (its location defines local
// civil time for the whole run), sampling every step, covering the
// given number of days, simulating every dayStride-th day.
//
// A dayStride of n > 1 keeps diurnal coverage intact while cutting the
// sample count n-fold; annual energies are scaled back by the caller
// (see ScaleToFullPeriod) so results stay comparable.
func New(start time.Time, step time.Duration, days, dayStride int) (*Grid, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timegrid: non-positive step %v", step)
	}
	if day := 24 * time.Hour; day%step != 0 {
		return nil, fmt.Errorf("timegrid: step %v does not divide a day", step)
	}
	if days <= 0 {
		return nil, fmt.Errorf("timegrid: non-positive day count %d", days)
	}
	if dayStride <= 0 {
		return nil, fmt.Errorf("timegrid: non-positive day stride %d", dayStride)
	}
	return &Grid{
		start:     start,
		step:      step,
		stepsDay:  int(24 * time.Hour / step),
		days:      days,
		dayStride: dayStride,
	}, nil
}

// Year returns the paper's reference calendar: a full 365-day year
// sampled every 15 minutes starting at local midnight, January 1st, in
// the given fixed-offset zone.
func Year(year int, loc *time.Location) *Grid {
	g, err := New(time.Date(year, time.January, 1, 0, 0, 0, 0, loc), 15*time.Minute, 365, 1)
	if err != nil {
		panic("timegrid: Year construction cannot fail: " + err.Error())
	}
	return g
}

// Step returns the sampling interval.
func (g *Grid) Step() time.Duration { return g.step }

// StepsPerDay returns the number of samples per simulated day.
func (g *Grid) StepsPerDay() int { return g.stepsDay }

// SimulatedDays returns the number of days actually sampled.
func (g *Grid) SimulatedDays() int {
	return (g.days + g.dayStride - 1) / g.dayStride
}

// Len returns the total number of samples.
func (g *Grid) Len() int { return g.SimulatedDays() * g.stepsDay }

// At returns the instant of sample i in [0, Len()).
func (g *Grid) At(i int) time.Time {
	if i < 0 || i >= g.Len() {
		panic(fmt.Sprintf("timegrid: sample index %d out of range [0,%d)", i, g.Len()))
	}
	day := (i / g.stepsDay) * g.dayStride
	slot := i % g.stepsDay
	return g.start.AddDate(0, 0, day).Add(time.Duration(slot) * g.step)
}

// StepHours returns the interval length in hours; energy integration
// multiplies power samples by this weight.
func (g *Grid) StepHours() float64 { return g.step.Hours() }

// ScaleToFullPeriod converts an aggregate accumulated over the
// simulated (strided) days into an estimate for the full covered
// period. With dayStride == 1 the value is returned unchanged.
func (g *Grid) ScaleToFullPeriod(v float64) float64 {
	return v * float64(g.days) / float64(g.SimulatedDays())
}

// Fingerprint returns a compact, stable identity of the calendar: two
// grids with equal fingerprints enumerate exactly the same instants in
// the same civil time zone. The solar-field engine keys its memoized
// per-timestep astronomy tables on it, and the batch runner uses it to
// decide when two runs can share one constructed field.
//
// The zone is identified by its location name; two *different*
// time.Locations that share a name and the offset at the start instant
// (a contrived case) would collide.
func (g *Grid) Fingerprint() string {
	_, offset := g.start.Zone()
	return fmt.Sprintf("%d|%d|%d|%d|%s|%d",
		g.start.UnixNano(), int64(g.step), g.days, g.dayStride,
		g.start.Location().String(), offset)
}

// ForEach calls fn for each sample index and instant, in order.
func (g *Grid) ForEach(fn func(i int, t time.Time)) {
	n := g.Len()
	for i := 0; i < n; i++ {
		fn(i, g.At(i))
	}
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("timegrid{start=%s step=%s days=%d stride=%d samples=%d}",
		g.start.Format(time.RFC3339), g.step, g.days, g.dayStride, g.Len())
}
