package field

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/solar/clearsky"
	"repro/internal/timegrid"
	"repro/internal/weather"
)

// TestFlatteningObstacleNeverLowersIrradiance is a physics property
// over seeded synthetic roofs: flattening a roof obstacle into the
// roof plane can only lower the horizon of every other cell. With the
// suitable mask of the obstructed roof on both fields, it checks, for
// every suitable cell i and pct in {50, 75, 90}, exactly (no
// tolerance):
//
//	flat.GPct[i]  >= obstructed.GPct[i]
//	flat.GMean[i] >= obstructed.GMean[i]
//
// and that every GPct and GMean is finite and >= 0 and every TactPct
// finite. The per-step irradiance CellIrradiance obeys the same >=.
//
// Why it holds bit for bit: a suitable cell is never an obstacle cell,
// so its own elevation is unchanged, and each horizon tangent is the
// maximum of (z − z0)/d over samples (at least 0) whose z can only
// fall, so every tangent falls or stays. The sky view factor is a mean
// of 1/(1+t²) over sectors, non-increasing in t ≥ 0. At each step the
// diffuse term diff·svf rises or stays, the reflected term is
// unchanged and the beam is only ever removed by shadow, which now
// covers no more steps. Float rounding is monotone, so every sample
// rises or stays; summed in the same order the mean does too, and
// moving samples into higher histogram bins cannot lower an
// interpolated percentile. Each seed must also raise some cell's mean
// strictly, so the obstacle shades something.
func TestFlatteningObstacleNeverLowersIrradiance(t *testing.T) {
	// Six days spread over the year at 30 minutes.
	grid, err := timegrid.New(time.Date(2017, 1, 10, 0, 0, 0, 0, cet), 30*time.Minute, 365, 61)
	if err != nil {
		t.Fatal(err)
	}
	wx, err := weather.NewSynthetic(3, weather.Turin)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 14+rng.Intn(15), 10+rng.Intn(9)
		cellSize := 0.2 + 0.3*rng.Float64()
		plane := dsm.Plane{RidgeZ: 5 + 5*rng.Float64(), SlopeDeg: 5 + 35*rng.Float64(), AspectDeg: 135 + 90*rng.Float64()}
		ow, oh := 1+rng.Intn(4), 1+rng.Intn(4)
		obstacle := geom.RectAt(geom.Cell{X: rng.Intn(w - ow + 1), Y: rng.Intn(h - oh + 1)}, ow, oh)
		height := 0.4 + 2.6*rng.Float64()
		const margin = 6
		// Odd seeds add a neighbour block south of the roof, which
		// stays in both scenes: the flattened roof is not bare.
		var neighbour *geom.Rect
		if seed%2 == 1 {
			neighbour = &geom.Rect{X0: 0, Y0: margin + h + 1, X1: margin + w/2, Y1: margin + h + 4}
		}
		build := func(withObstacle bool) *dsm.Scene {
			b, err := dsm.NewSceneBuilder(w, h, cellSize, plane, margin)
			if err != nil {
				t.Fatal(err)
			}
			if neighbour != nil {
				if err := b.AddAdjacentStructure(*neighbour, plane.RidgeZ); err != nil {
					t.Fatal(err)
				}
			}
			if withObstacle {
				b.AddObstacle(obstacle, height)
			}
			return b.Build()
		}
		obstructed, flat := build(true), build(false)
		suitable := obstructed.SuitableArea(0)
		evaluator := func(scene *dsm.Scene) *Evaluator {
			ev, err := New(Config{
				Site: turin, Scene: scene, Suitable: suitable, Weather: wx,
				Grid: grid, MonthlyTL: clearsky.TurinMonthlyTL,
			})
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		evO, evF := evaluator(obstructed), evaluator(flat)

		var cells []geom.Cell
		suitable.ForEachSet(func(c geom.Cell) { cells = append(cells, c) })
		for i := 0; i < grid.Len(); i++ {
			for _, c := range cells {
				if gO, gF := evO.CellIrradiance(i, c), evF.CellIrradiance(i, c); !(gF >= gO) {
					t.Fatalf("seed %d step %d cell %v: flattened %v < obstructed %v", seed, i, c, gF, gO)
				}
			}
		}
		raised := 0
		for _, pct := range []float64{50, 75, 90} {
			csO, err := evO.StatsPercentile(pct)
			if err != nil {
				t.Fatal(err)
			}
			csF, err := evF.StatsPercentile(pct)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				i := c.Y*csO.W + c.X
				for _, cs := range []*CellStats{csO, csF} {
					if g := cs.GPct[i]; math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
						t.Fatalf("seed %d pct %g cell %v: GPct %v", seed, pct, c, g)
					}
					if g := cs.GMean[i]; math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
						t.Fatalf("seed %d pct %g cell %v: GMean %v", seed, pct, c, g)
					}
					if v := cs.TactPct[i]; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("seed %d pct %g cell %v: TactPct %v", seed, pct, c, v)
					}
				}
				if !(csF.GPct[i] >= csO.GPct[i]) {
					t.Fatalf("seed %d pct %g cell %v: flattened GPct %v < obstructed %v",
						seed, pct, c, csF.GPct[i], csO.GPct[i])
				}
				if !(csF.GMean[i] >= csO.GMean[i]) {
					t.Fatalf("seed %d pct %g cell %v: flattened GMean %v < obstructed %v",
						seed, pct, c, csF.GMean[i], csO.GMean[i])
				}
				if csF.GMean[i] > csO.GMean[i] {
					raised++
				}
			}
		}
		if raised == 0 {
			t.Errorf("seed %d: obstacle %v (%.2f m) shaded no suitable cell", seed, obstacle, height)
		}
	}
}
