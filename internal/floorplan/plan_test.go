package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/panel"
	"repro/internal/solar/field"
)

// gradientSuit builds a w×h suitability field rising linearly toward
// the east (right), all cells valid.
func gradientSuit(w, h int) *Suitability {
	s := &Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.S[y*w+x] = float64(x)
		}
	}
	return s
}

// hotspotSuit builds a field with distinct high-value islands on a
// low background: island centers listed with their values.
func hotspotSuit(w, h int, bg float64, spots map[geom.Cell]float64, radius int) *Suitability {
	s := &Suitability{W: w, H: h, S: make([]float64, w*h)}
	for i := range s.S {
		s.S[i] = bg
	}
	for c, v := range spots {
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				p := c.Add(dx, dy)
				if p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h {
					s.S[p.Y*w+p.X] = v
				}
			}
		}
	}
	return s
}

func fullMask(w, h int) *geom.Mask {
	m := geom.NewMask(w, h)
	m.Fill(true)
	return m
}

func defaultOpts(n, m int) Options {
	return Options{
		Shape:    ModuleShape{W: 8, H: 4},
		Topology: panel.Topology{SeriesPerString: m, Strings: n / m},
	}
}

func TestPlanValidation(t *testing.T) {
	suit := gradientSuit(40, 20)
	mask := fullMask(40, 20)
	if _, err := Plan(nil, mask, defaultOpts(4, 2)); err == nil {
		t.Error("nil suitability must error")
	}
	if _, err := Plan(suit, fullMask(10, 10), defaultOpts(4, 2)); err == nil {
		t.Error("dim mismatch must error")
	}
	bad := defaultOpts(4, 2)
	bad.Shape = ModuleShape{}
	if _, err := Plan(suit, mask, bad); err == nil {
		t.Error("invalid shape must error")
	}
	bad = defaultOpts(4, 2)
	bad.Topology = panel.Topology{}
	if _, err := Plan(suit, mask, bad); err == nil {
		t.Error("invalid topology must error")
	}
}

func TestPlanPlacesAllModulesFeasibly(t *testing.T) {
	suit := gradientSuit(60, 30)
	mask := fullMask(60, 30)
	opts := defaultOpts(8, 4)
	pl, err := Plan(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rects) != 8 {
		t.Fatalf("placed %d modules, want 8", len(pl.Rects))
	}
	if !pl.OverlapFree() {
		t.Error("placement overlaps")
	}
	if !pl.WithinMask(mask) {
		t.Error("placement escapes the mask")
	}
	if pl.SuitabilitySum <= 0 {
		t.Error("suitability sum should be positive")
	}
}

func TestPlanPrefersHighSuitability(t *testing.T) {
	// With an eastward gradient the greedy must hug the east edge.
	suit := gradientSuit(60, 30)
	mask := fullMask(60, 30)
	pl, err := Plan(suit, mask, defaultOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pl.Rects {
		if r.X1 < 40 {
			t.Errorf("module at %v ignores the gradient (east edge is best)", r)
		}
	}
}

func TestPlanAvoidsObstacles(t *testing.T) {
	suit := gradientSuit(60, 30)
	mask := fullMask(60, 30)
	// Block out the hottest column band.
	mask.SetRect(geom.Rect{X0: 50, Y0: 0, X1: 60, Y1: 30}, false)
	pl, err := Plan(suit, mask, defaultOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.WithinMask(mask) {
		t.Fatal("module placed on blocked cells")
	}
	for _, r := range pl.Rects {
		if r.X1 > 50 {
			t.Errorf("module %v overlaps the blocked band", r)
		}
	}
}

func TestPlanSkewedFieldBeatsCompactInSuitability(t *testing.T) {
	// Hotspots scattered beyond a compact block's reach: greedy
	// sparse placement must collect strictly more suitability than
	// the best compact block (the Fig. 1 argument).
	spots := map[geom.Cell]float64{
		{X: 10, Y: 6}:  100,
		{X: 48, Y: 8}:  95,
		{X: 12, Y: 22}: 90,
		{X: 50, Y: 24}: 85,
	}
	suit := hotspotSuit(64, 32, 10, spots, 5)
	mask := fullMask(64, 32)
	opts := defaultOpts(4, 2)
	sparse, err := Plan(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := PlanCompact(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(sparse.SuitabilitySum > compact.SuitabilitySum) {
		t.Errorf("sparse %.1f should beat compact %.1f on this field",
			sparse.SuitabilitySum, compact.SuitabilitySum)
	}
	if !compact.OverlapFree() || !compact.WithinMask(mask) {
		t.Error("compact placement infeasible")
	}
}

func TestPlanDistanceThresholdKeepsPlacementLocal(t *testing.T) {
	// Two equal hotspots at opposite corners: with the threshold the
	// placement stays near the first-chosen spot; without it the
	// modules split across both corners.
	spots := map[geom.Cell]float64{
		{X: 8, Y: 8}:   100,
		{X: 86, Y: 40}: 100,
	}
	suit := hotspotSuit(96, 48, 1, spots, 6)
	mask := fullMask(96, 48)

	with := defaultOpts(4, 2)
	with.Policy = PolicyCentroid
	plWith, err := Plan(suit, mask, with)
	if err != nil {
		t.Fatal(err)
	}
	spread := placementSpread(plWith)

	without := defaultOpts(4, 2)
	without.Policy = PolicyNone
	plWithout, err := Plan(suit, mask, without)
	if err != nil {
		t.Fatal(err)
	}
	spreadFree := placementSpread(plWithout)

	if !(spread < spreadFree) {
		t.Errorf("threshold should reduce spread: with=%.1f without=%.1f", spread, spreadFree)
	}
}

func placementSpread(pl *Placement) float64 {
	var cx, cy float64
	for _, r := range pl.Rects {
		x, y := r.Center()
		cx += x
		cy += y
	}
	cx /= float64(len(pl.Rects))
	cy /= float64(len(pl.Rects))
	var worst float64
	for _, r := range pl.Rects {
		x, y := r.Center()
		if d := math.Hypot(x-cx, y-cy); d > worst {
			worst = d
		}
	}
	return worst
}

func TestPlanChainPolicy(t *testing.T) {
	suit := gradientSuit(60, 30)
	mask := fullMask(60, 30)
	opts := defaultOpts(8, 4)
	opts.Policy = PolicyChain
	pl, err := Plan(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rects) != 8 || !pl.OverlapFree() {
		t.Error("chain policy placement infeasible")
	}
}

func TestPlanTieBreakByDistance(t *testing.T) {
	// Uniform field: every candidate scores identically, so after
	// the first module all subsequent ones must pack tightly against
	// the placed centroid (distance tie-break).
	suit := hotspotSuit(60, 30, 50, nil, 0)
	mask := fullMask(60, 30)
	opts := defaultOpts(4, 2)
	opts.TieEpsilonRel = 1e-9
	pl, err := Plan(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spread := placementSpread(pl); spread > 12 {
		t.Errorf("uniform-field placement spread = %.1f cells, want compact (<12)", spread)
	}
}

func TestPlanErrNoSpace(t *testing.T) {
	// Room for only 2 modules, ask for 4.
	suit := gradientSuit(16, 4)
	mask := fullMask(16, 4)
	_, err := Plan(suit, mask, defaultOpts(4, 2))
	var noSpace *ErrNoSpace
	if err == nil {
		t.Fatal("expected ErrNoSpace")
	}
	if ok := errorsAs(err, &noSpace); !ok {
		t.Fatalf("error type = %T, want *ErrNoSpace", err)
	}
	if noSpace.Placed != 2 || noSpace.Wanted != 4 {
		t.Errorf("ErrNoSpace = %+v", noSpace)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **ErrNoSpace) bool {
	e, ok := err.(*ErrNoSpace)
	if ok {
		*target = e
	}
	return ok
}

func TestPlanPropertyFeasibility(t *testing.T) {
	// Random masks and random fields: any successful plan is overlap
	// free, within mask, and places exactly N modules.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 40 + rng.Intn(40)
		h := 20 + rng.Intn(20)
		suit := &Suitability{W: w, H: h, S: make([]float64, w*h)}
		mask := geom.NewMask(w, h)
		for i := range suit.S {
			suit.S[i] = rng.Float64() * 100
		}
		mask.Fill(true)
		for b := 0; b < 5; b++ {
			x, y := rng.Intn(w), rng.Intn(h)
			mask.SetRect(geom.Rect{X0: x, Y0: y, X1: x + 6, Y1: y + 6}, false)
		}
		n := 2 * (1 + rng.Intn(3)) // 2,4,6
		opts := defaultOpts(n, 2)
		pl, err := Plan(suit, mask, opts)
		if err != nil {
			var noSpace *ErrNoSpace
			return errorsAs(err, &noSpace) // only legitimate failure
		}
		return len(pl.Rects) == n && pl.OverlapFree() && pl.WithinMask(mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlanDeterminism(t *testing.T) {
	suit := gradientSuit(60, 30)
	mask := fullMask(60, 30)
	a, err := Plan(suit, mask, defaultOpts(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(suit, mask, defaultOpts(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("non-deterministic placement at module %d", i)
		}
	}
}

func TestComputeSuitability(t *testing.T) {
	cs := &field.CellStats{
		W: 2, H: 1, Pct: 75,
		GPct:    []float64{500, math.NaN()},
		GMean:   []float64{180, math.NaN()},
		TactPct: []float64{45, math.NaN()},
	}
	s, err := ComputeSuitability(cs, SuitabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 500 * (1.12 - 0.0048*45)
	if math.Abs(s.At(geom.Cell{X: 0, Y: 0})-want) > 1e-9 {
		t.Errorf("suitability = %g, want %g", s.At(geom.Cell{X: 0, Y: 0}), want)
	}
	if s.Valid(geom.Cell{X: 1, Y: 0}) {
		t.Error("NaN stats must stay invalid")
	}

	// Mean variant: the same temperature factor on the mean.
	s2, _ := ComputeSuitability(cs, SuitabilityOptions{UseMean: true})
	if want := 180 * (1.12 - 0.0048*45); math.Abs(s2.At(geom.Cell{X: 0, Y: 0})-want) > 1e-9 {
		t.Errorf("UseMean suitability = %g, want %g", s2.At(geom.Cell{X: 0, Y: 0}), want)
	}
	// Hotter cells rank lower at equal irradiance.
	csHot := &field.CellStats{
		W: 2, H: 1, Pct: 75,
		GPct:    []float64{500, 500},
		GMean:   []float64{180, 180},
		TactPct: []float64{30, 60},
	}
	s3, _ := ComputeSuitability(csHot, SuitabilityOptions{})
	if !(s3.At(geom.Cell{X: 0, Y: 0}) > s3.At(geom.Cell{X: 1, Y: 0})) {
		t.Error("hotter cell must rank below cooler cell at equal G")
	}
	if _, err := ComputeSuitability(nil, SuitabilityOptions{}); err == nil {
		t.Error("nil stats must error")
	}
}

func TestPlanCompactIntactBlock(t *testing.T) {
	// Uniform field, no obstacles: compact baseline must pick an
	// intact rows×cols block with zero wiring overhead shape (all
	// modules flush).
	suit := hotspotSuit(80, 40, 10, nil, 0)
	mask := fullMask(80, 40)
	opts := defaultOpts(8, 4)
	pl, err := PlanCompact(suit, mask, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rects) != 8 || !pl.OverlapFree() || !pl.WithinMask(mask) {
		t.Fatal("compact placement infeasible")
	}
	if len(pl.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", pl.Warnings)
	}
	// Flushness: bounding box area equals total module area.
	minX, minY, maxX, maxY := 1<<30, 1<<30, -1, -1
	for _, r := range pl.Rects {
		if r.X0 < minX {
			minX = r.X0
		}
		if r.Y0 < minY {
			minY = r.Y0
		}
		if r.X1 > maxX {
			maxX = r.X1
		}
		if r.Y1 > maxY {
			maxY = r.Y1
		}
	}
	if (maxX-minX)*(maxY-minY) != 8*32 {
		t.Errorf("compact block not tight: bbox %dx%d", maxX-minX, maxY-minY)
	}
}

func TestPlanCompactTracksIrradiance(t *testing.T) {
	// Gradient field: the compact block must sit against the east
	// edge (most irradiated region).
	suit := gradientSuit(80, 40)
	mask := fullMask(80, 40)
	pl, err := PlanCompact(suit, mask, defaultOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pl.Rects {
		if r.X1 < 60 {
			t.Errorf("compact block at %v ignores the gradient", r)
		}
	}
}

func TestPlanCompactHoleyFallback(t *testing.T) {
	// Obstacles punch holes everywhere so no intact 4-module block
	// fits; the fallback must still place 4 modules feasibly.
	suit := hotspotSuit(64, 24, 10, nil, 0)
	mask := fullMask(64, 24)
	// Full-width pipes every 6 rows leave 5-row bands (one module
	// high, so no 8-or-16-row block), and posts every 11 columns cap
	// free horizontal runs at 10 cells (no 16- or 32-wide block).
	// Single 8x4 modules still fit between the posts.
	for y := 5; y < 24; y += 6 {
		mask.SetRect(geom.Rect{X0: 0, Y0: y, X1: 64, Y1: y + 1}, false)
	}
	for x := 10; x < 64; x += 11 {
		mask.SetRect(geom.Rect{X0: x, Y0: 0, X1: x + 1, Y1: 24}, false)
	}
	pl, err := PlanCompact(suit, mask, defaultOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rects) != 4 || !pl.OverlapFree() || !pl.WithinMask(mask) {
		t.Fatal("holey fallback placement infeasible")
	}
	if len(pl.Warnings) == 0 {
		t.Error("holey fallback should record a warning")
	}
}

func TestPlanCompactErrNoSpace(t *testing.T) {
	suit := gradientSuit(7, 3) // smaller than one module
	mask := fullMask(7, 3)
	if _, err := PlanCompact(suit, mask, defaultOpts(2, 2)); err == nil {
		t.Error("expected ErrNoSpace")
	}
}

func TestDistancePolicyString(t *testing.T) {
	if PolicyCentroid.String() != "centroid" || PolicyChain.String() != "chain" || PolicyNone.String() != "none" {
		t.Error("policy strings")
	}
	if DistancePolicy(9).String() == "" {
		t.Error("unknown policy string")
	}
}
