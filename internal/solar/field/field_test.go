package field

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/solar/clearsky"
	"repro/internal/solar/sunpos"
	"repro/internal/timegrid"
	"repro/internal/weather"
)

var (
	cet   = time.FixedZone("CET", 3600)
	turin = sunpos.Site{LatDeg: 45.07, LonDeg: 7.69, AltitudeM: 240}
)

// testScene builds a 40x24-cell south-facing roof with a chimney near
// the east end.
func testScene(t *testing.T) *dsm.Scene {
	t.Helper()
	b, err := dsm.NewSceneBuilder(40, 24, 0.2, dsm.Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: 180}, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.AddChimney(geom.Cell{X: 32, Y: 8}, 3, 1.8)
	return b.Build()
}

// testGrid: two representative days (a summer and a winter day) at
// hourly resolution keeps the test fast while exercising both seasons.
func testGrid(t *testing.T) *timegrid.Grid {
	t.Helper()
	g, err := timegrid.New(time.Date(2017, 6, 18, 0, 0, 0, 0, cet), time.Hour, 183, 182)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEvaluator(t *testing.T, mutate func(*Config)) *Evaluator {
	t.Helper()
	scene := testScene(t)
	wx, err := weather.NewSynthetic(1, weather.Turin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Site:      turin,
		Scene:     scene,
		Suitable:  scene.SuitableArea(0),
		Weather:   wx,
		Grid:      testGrid(t),
		MonthlyTL: clearsky.TurinMonthlyTL,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewValidation(t *testing.T) {
	scene := testScene(t)
	wx, _ := weather.NewSynthetic(1, weather.Turin)
	grid := testGrid(t)
	good := Config{Site: turin, Scene: scene, Suitable: scene.SuitableArea(0),
		Weather: wx, Grid: grid, MonthlyTL: clearsky.TurinMonthlyTL}

	missing := good
	missing.Weather = nil
	if _, err := New(missing); err == nil {
		t.Error("missing weather must be rejected")
	}
	badMask := good
	badMask.Suitable = geom.NewMask(3, 3)
	if _, err := New(badMask); err == nil {
		t.Error("mask/roof dimension mismatch must be rejected")
	}
	badTL := good
	badTL.MonthlyTL = [12]float64{} // zeros are outside [1,10]
	if _, err := New(badTL); err == nil {
		t.Error("invalid turbidity must be rejected")
	}
}

func TestNightAndDayIrradiance(t *testing.T) {
	ev := testEvaluator(t, nil)
	c := geom.Cell{X: 10, Y: 10}
	// Step 0 is 00:00 on June 18: dark.
	if g := ev.CellIrradiance(0, c); g != 0 {
		t.Errorf("midnight irradiance = %g", g)
	}
	// Noon (13:00 CET) of the first simulated day.
	noon := 13
	if g := ev.CellIrradiance(noon, c); g <= 50 {
		t.Errorf("summer noon irradiance = %g, want substantial", g)
	}
	// Irradiance bounded by physics.
	for i := 0; i < ev.Grid().Len(); i++ {
		if g := ev.CellIrradiance(i, c); g < 0 || g > 1400 {
			t.Fatalf("step %d: irradiance %g outside [0,1400]", i, g)
		}
	}
}

func TestChimneyShadowReducesWestNeighbourEnergy(t *testing.T) {
	// The chimney at x∈[32,35) casts afternoon shadows toward its
	// east and morning shadows toward its west... in the northern
	// hemisphere with a south-facing roof it mostly shades cells to
	// its W/N/E at low sun. Compare annual sums of a cell hugging the
	// chimney against a far-away open cell on the same row.
	ev := testEvaluator(t, nil)
	near := geom.Cell{X: 31, Y: 9} // immediately west of chimney
	open := geom.Cell{X: 10, Y: 9}
	var sumNear, sumOpen float64
	for i := 0; i < ev.Grid().Len(); i++ {
		sumNear += ev.CellIrradiance(i, near)
		sumOpen += ev.CellIrradiance(i, open)
	}
	if !(sumNear < sumOpen) {
		t.Errorf("chimney-adjacent cell %.0f should collect less than open cell %.0f", sumNear, sumOpen)
	}
	if sumNear < 0.5*sumOpen {
		t.Errorf("shadow impact implausibly large: %.0f vs %.0f (diffuse should persist)", sumNear, sumOpen)
	}
}

func TestStatsShapeAndInvariants(t *testing.T) {
	ev := testEvaluator(t, nil)
	cs, err := ev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.W != 40 || cs.H != 24 {
		t.Fatalf("stats dims %dx%d", cs.W, cs.H)
	}
	if cs.Samples != uint64(ev.Grid().Len()) {
		t.Errorf("samples = %d, want %d", cs.Samples, ev.Grid().Len())
	}
	suitable := 0
	for y := 0; y < cs.H; y++ {
		for x := 0; x < cs.W; x++ {
			c := geom.Cell{X: x, Y: y}
			gp75, gmean, tact := cs.At(c)
			if !cs.Valid(c) {
				continue
			}
			suitable++
			if gp75 < 0 || gp75 > 1400 {
				t.Fatalf("cell %v: gp75 = %g", c, gp75)
			}
			if gmean < 0 || gmean > gp75+600 {
				t.Fatalf("cell %v: gmean = %g vs gp75 = %g", c, gmean, gp75)
			}
			if tact < -30 || tact > 105 {
				t.Fatalf("cell %v: tactp75 = %g", c, tact)
			}
		}
	}
	// Chimney cells are unsuitable → NaN.
	if cs.Valid(geom.Cell{X: 33, Y: 9}) {
		t.Error("chimney cell should carry no stats")
	}
	if suitable == 0 {
		t.Fatal("no suitable cells had stats")
	}
	// Open cells collect energy: both summaries strictly positive.
	gp75, gmean, _ := cs.At(geom.Cell{X: 10, Y: 10})
	if gp75 <= 0 || gmean <= 0 {
		t.Errorf("open cell: gp75=%.1f gmean=%.1f, want both > 0", gp75, gmean)
	}
}

func TestStatsShadowGradient(t *testing.T) {
	// Cells adjacent to the chimney must show lower p75 than open
	// cells of the same row.
	ev := testEvaluator(t, nil)
	cs, err := ev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	nearP75, _, _ := cs.At(geom.Cell{X: 31, Y: 9})
	openP75, _, _ := cs.At(geom.Cell{X: 10, Y: 9})
	if !(nearP75 <= openP75) {
		t.Errorf("chimney-adjacent p75 %.1f should not exceed open-cell p75 %.1f", nearP75, openP75)
	}
}

func TestStreamTracesMatchesCellIrradiance(t *testing.T) {
	ev := testEvaluator(t, nil)
	cells := []geom.Cell{{X: 5, Y: 5}, {X: 31, Y: 9}, {X: 20, Y: 20}}
	// The stream is exactly the up steps, in calendar order: dark
	// steps (G = 0 for every cell) are skipped.
	var streamed []int
	err := ev.StreamTraces(cells, func(step int, g, tact []float64) {
		if !ev.sky[step].up {
			t.Fatalf("step %d streamed with the sun down", step)
		}
		streamed = append(streamed, step)
		for j, c := range cells {
			want := ev.CellIrradiance(step, c)
			if math.Abs(g[j]-want) > 1e-12 {
				t.Fatalf("step %d cell %v: stream %g vs direct %g", step, c, g[j], want)
			}
			wantT := ev.sky[step].ambient + weather.DefaultThermalK*want
			if math.Abs(tact[j]-wantT) > 1e-12 {
				t.Fatalf("step %d cell %v: tact %g vs %g", step, c, tact[j], wantT)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var up []int
	for step := range ev.sky {
		if ev.sky[step].up {
			up = append(up, step)
		}
	}
	if !slices.Equal(streamed, up) {
		t.Errorf("streamed steps %v, want the up steps %v", streamed, up)
	}
	if uint64(len(streamed)) != ev.daySteps || ev.daySteps == 0 || ev.daySteps == uint64(ev.Grid().Len()) {
		t.Errorf("streamed %d steps, want daySteps = %d, strictly between 0 and the calendar's %d",
			len(streamed), ev.daySteps, ev.Grid().Len())
	}
}

func TestStreamTracesRejectsOutOfRegion(t *testing.T) {
	ev := testEvaluator(t, nil)
	err := ev.StreamTraces([]geom.Cell{{X: -1, Y: 0}}, func(int, []float64, []float64) {})
	if err == nil {
		t.Error("out-of-region cell must be rejected")
	}
	// A chimney cell: inside the roof, outside the suitable mask, so
	// its horizon was never marched.
	err = ev.StreamTraces([]geom.Cell{{X: 10, Y: 10}, {X: 33, Y: 9}}, func(int, []float64, []float64) {
		t.Fatal("a rejected trace must not stream")
	})
	if err == nil {
		t.Error("unsuitable cell must be rejected")
	}
}

func TestSeasonalEnergyOrdering(t *testing.T) {
	// The summer simulated day must out-collect the winter day.
	ev := testEvaluator(t, nil)
	c := geom.Cell{X: 20, Y: 12}
	spd := ev.Grid().StepsPerDay()
	var summer, winter float64
	for i := 0; i < spd; i++ {
		summer += ev.CellIrradiance(i, c)
		winter += ev.CellIrradiance(spd+i, c)
	}
	if !(summer > winter) {
		t.Errorf("summer day %.0f should exceed winter day %.0f", summer, winter)
	}
}

func TestCellSummarySkewness(t *testing.T) {
	// The §III-C premise: the all-samples irradiance distribution of
	// any open cell is strongly right-skewed (nights and low-sun
	// hours dominate), so mean < p75 fails to hold in general but
	// skewness stays clearly positive.
	ev := testEvaluator(t, nil)
	sum, err := ev.cellSummary(geom.Cell{X: 10, Y: 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != ev.Grid().Len() {
		t.Errorf("summary over %d samples, want %d", sum.N, ev.Grid().Len())
	}
	if sum.Skewness <= 0.5 {
		t.Errorf("skewness = %.2f, want strongly positive", sum.Skewness)
	}
	if sum.Min != 0 {
		t.Errorf("min = %g, nights must contribute zeros", sum.Min)
	}
	// Daylight-only restriction removes the night mass.
	day, err := ev.cellSummary(geom.Cell{X: 10, Y: 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if day.N >= sum.N {
		t.Error("daylight-only must drop samples")
	}
	if !(day.Mean > sum.Mean) {
		t.Error("daylight-only mean must rise")
	}
	// Out-of-region cell rejected.
	if _, err := ev.cellSummary(geom.Cell{X: -1, Y: 0}, false); err == nil {
		t.Error("out-of-region cell must error")
	}
}
