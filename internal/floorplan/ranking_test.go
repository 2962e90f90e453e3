package floorplan

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/panel"
)

// The candidate ranking used to sort with slices.SortStableFunc and an
// eager cmp.Or comparator, and fillShortfall re-ranked a fresh
// scoreCandidates pass with a second stable sort that recomputed both
// distances per comparison. The functions below keep that code as the
// reference the cheaper ranking must match order for order.

// refScoreCandidates is the stable-sort scoreCandidates.
func refScoreCandidates(suit *Suitability, mask *geom.Mask, opts Options) []candidate {
	shapes := []ModuleShape{opts.Shape}
	if opts.AllowRotation && opts.Shape.W != opts.Shape.H {
		shapes = append(shapes, ModuleShape{W: opts.Shape.H, H: opts.Shape.W})
	}
	var cands []candidate
	area := float64(opts.Shape.W * opts.Shape.H)
	for _, shape := range shapes {
		for y := 0; y+shape.H <= mask.H(); y++ {
			for x := 0; x+shape.W <= mask.W(); x++ {
				anchor := geom.Cell{X: x, Y: y}
				rect := shape.Rect(anchor)
				if !mask.AllSet(rect) {
					continue
				}
				var score float64
				if opts.AnchorScore {
					score = suit.At(anchor)
				} else {
					sum := 0.0
					ok := true
					rect.Cells(func(c geom.Cell) bool {
						v := suit.At(c)
						if math.IsNaN(v) {
							ok = false
							return false
						}
						sum += v
						return true
					})
					if !ok {
						continue
					}
					score = sum / area
				}
				if math.IsNaN(score) {
					continue
				}
				cands = append(cands, candidate{anchor: anchor, score: score, shape: shape})
			}
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score),
			cmp.Compare(a.anchor.Y, b.anchor.Y), cmp.Compare(a.anchor.X, b.anchor.X),
			cmp.Compare(b.shape.W, a.shape.W)) // stable: landscape first
	})
	return cands
}

// refNearest is the stable-sort shortfall ranking: every free
// candidate re-scored by refScoreCandidates, then stably sorted by
// distance to the block centroid and score.
func refNearest(slots []geom.Cell, avail *geom.Mask, suit *Suitability, opts Options) []candidate {
	var cx, cy float64
	for _, s := range slots {
		x, y := opts.Shape.Rect(s).Center()
		cx += x
		cy += y
	}
	cx /= float64(len(slots))
	cy /= float64(len(slots))

	cands := refScoreCandidates(suit, avail, opts)
	// Prefer proximity to the block, then score.
	slices.SortStableFunc(cands, func(a, b candidate) int {
		xa, ya := opts.Shape.Rect(a.anchor).Center()
		xb, yb := opts.Shape.Rect(b.anchor).Center()
		return cmp.Or(cmp.Compare(math.Hypot(xa-cx, ya-cy), math.Hypot(xb-cx, yb-cy)),
			cmp.Compare(b.score, a.score))
	})
	return cands
}

// refFillShortfall is the pre-table fillShortfall.
func refFillShortfall(slots []geom.Cell, suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	n := opts.Topology.Modules()
	avail := mask.Clone()
	for _, s := range slots {
		avail.SetRect(opts.Shape.Rect(s), false)
	}
	filled := append([]geom.Cell{}, slots...)
	for _, cd := range refNearest(slots, avail, suit, opts) {
		if len(filled) >= n {
			break
		}
		rect := opts.Shape.Rect(cd.anchor)
		if !avail.AllSet(rect) {
			continue
		}
		avail.SetRect(rect, false)
		filled = append(filled, cd.anchor)
	}
	if len(filled) < n {
		return nil, &ErrNoSpace{Placed: len(filled), Wanted: n}
	}
	slices.SortFunc(filled, func(a, b geom.Cell) int {
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
	})
	return placementFromSlots(filled, suit, opts, nil)
}

func refPlan(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	return placeRanked(refScoreCandidates(suit, mask, opts), mask, opts)
}

func refPlanRandom(suit *Suitability, mask *geom.Mask, opts Options, seed int64) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	return placeRandom(refScoreCandidates(suit, mask, opts), mask, opts, seed)
}

func refPlanCompact(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	opts.AllowRotation = false
	slots, intact := newSlotTable(suit, mask, opts.Shape).bestBlock(mask, opts)
	switch {
	case slots == nil:
		return nil, &ErrNoSpace{Placed: 0, Wanted: opts.Topology.Modules()}
	case intact:
		return placementFromSlots(slots, suit, opts, nil)
	default:
		pl, err := refFillShortfall(slots, suit, mask, opts)
		if err != nil {
			return nil, err
		}
		pl.Warnings = append(pl.Warnings,
			"compact baseline: no intact block fits; obstacle slots skipped and refilled nearby")
		return pl, nil
	}
}

// placementKey renders a planning outcome exactly: every rect, the
// suitability sum's bit pattern, the warnings, or the error.
func placementKey(pl *Placement, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v sum=%#x", pl.Topology, pl.Shape, math.Float64bits(pl.SuitabilitySum))
	for _, r := range pl.Rects {
		fmt.Fprintf(&b, " %v", r)
	}
	fmt.Fprintf(&b, " warnings=%q", pl.Warnings)
	return b.String()
}

// rankingCase is one suitability grid and planner configuration of the
// ranking equivalence checks.
type rankingCase struct {
	suit *Suitability
	mask *geom.Mask
	opts Options
}

// checkRanking holds the ranking and every planner built on it to the
// stable-sort reference on one case.
func checkRanking(t *testing.T, c rankingCase, rng *rand.Rand) {
	t.Helper()
	opts := c.opts
	if err := prepare(c.suit, c.mask, &opts); err != nil {
		t.Fatal(err)
	}
	got, want := scoreCandidates(c.suit, c.mask, opts), refScoreCandidates(c.suit, c.mask, opts)
	if len(got) != len(want) {
		t.Fatalf("scoreCandidates: %d candidates, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.anchor != w.anchor || g.shape != w.shape || math.Float64bits(g.score) != math.Float64bits(w.score) {
			t.Fatalf("scoreCandidates[%d] = %+v, reference %+v", i, g, w)
		}
	}

	// The shortfall ranking, from the holey block PlanCompact would
	// fill and from random partial blocks.
	copts := opts
	copts.AllowRotation = false
	table := newSlotTable(c.suit, c.mask, copts.Shape)
	var slotSets [][]geom.Cell
	if slots, intact := table.bestBlock(c.mask, copts); slots != nil && !intact {
		slotSets = append(slotSets, slots)
	}
	var valid []geom.Cell
	for ay := 0; ay < table.ah; ay++ {
		for ax := 0; ax < table.aw; ax++ {
			if _, ok := table.at(geom.Cell{X: ax, Y: ay}); ok {
				valid = append(valid, geom.Cell{X: ax, Y: ay})
			}
		}
	}
	for trial := 0; trial < 3 && len(valid) > 0; trial++ {
		used := geom.NewMask(c.mask.W(), c.mask.H())
		var slots []geom.Cell
		want := 1 + rng.Intn(copts.Topology.Modules())
		for _, i := range rng.Perm(len(valid)) {
			rect := copts.Shape.Rect(valid[i])
			if len(slots) == want || used.AnySet(rect) {
				continue
			}
			used.SetRect(rect, true)
			slots = append(slots, valid[i])
		}
		slotSets = append(slotSets, slots)
	}
	for _, slots := range slotSets {
		avail := c.mask.Clone()
		for _, s := range slots {
			avail.SetRect(copts.Shape.Rect(s), false)
		}
		gotNear, wantNear := table.nearest(slots, avail, c.suit, copts), refNearest(slots, avail, c.suit, copts)
		if len(gotNear) != len(wantNear) {
			t.Fatalf("nearest(%v): %d candidates, reference %d", slots, len(gotNear), len(wantNear))
		}
		for i := range gotNear {
			g, w := gotNear[i], wantNear[i]
			if g.anchor != w.anchor || math.Float64bits(g.score) != math.Float64bits(w.score) {
				t.Fatalf("nearest(%v)[%d] = %v (%g), reference %v (%g)", slots, i, g.anchor, g.score, w.anchor, w.score)
			}
		}
		g := placementKey(fillShortfall(slots, table, c.suit, c.mask, copts))
		w := placementKey(refFillShortfall(slots, c.suit, c.mask, copts))
		if g != w {
			t.Fatalf("fillShortfall(%v):\n got  %s\n want %s", slots, g, w)
		}
	}

	planners := []struct {
		name      string
		got, want func() (*Placement, error)
	}{
		{"Plan",
			func() (*Placement, error) { return Plan(c.suit, c.mask, c.opts) },
			func() (*Placement, error) { return refPlan(c.suit, c.mask, c.opts) }},
		{"PlanCompact",
			func() (*Placement, error) { return PlanCompact(c.suit, c.mask, c.opts) },
			func() (*Placement, error) { return refPlanCompact(c.suit, c.mask, c.opts) }},
		{"PlanRandom",
			func() (*Placement, error) { return PlanRandom(c.suit, c.mask, c.opts, 7) },
			func() (*Placement, error) { return refPlanRandom(c.suit, c.mask, c.opts, 7) }},
	}
	for _, p := range planners {
		if g, w := placementKey(p.got()), placementKey(p.want()); g != w {
			t.Fatalf("%s:\n got  %s\n want %s", p.name, g, w)
		}
	}
}

// randomRankingCase builds a tie-heavy case: suitability quantized to
// a few levels (zeros of both signs), NaN cells and mask holes.
func randomRankingCase(rng *rand.Rand, w, h, levels, nanPct, holePct int, shape ModuleShape, modules int, rotate, anchorScore bool) rankingCase {
	suit := &Suitability{W: w, H: h, S: make([]float64, w*h)}
	negZero := math.Copysign(0, -1)
	for i := range suit.S {
		switch v := float64(rng.Intn(levels)) * 0.25; {
		case rng.Intn(100) < nanPct:
			suit.S[i] = math.NaN()
		case v == 0 && rng.Intn(2) == 0:
			suit.S[i] = negZero
		default:
			suit.S[i] = v
		}
	}
	mask := fullMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Intn(100) < holePct {
				mask.Set(geom.Cell{X: x, Y: y}, false)
			}
		}
	}
	return rankingCase{suit: suit, mask: mask, opts: Options{
		Shape:         shape,
		Topology:      panel.Topology{SeriesPerString: 2, Strings: modules / 2},
		AllowRotation: rotate,
		AnchorScore:   anchorScore,
	}}
}

func TestCandidateRankingMatchesStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	uniform := func(w, h int, v float64) *Suitability {
		s := &Suitability{W: w, H: h, S: make([]float64, w*h)}
		for i := range s.S {
			s.S[i] = v
		}
		return s
	}
	signedZeros := uniform(20, 12, 0)
	for i := range signedZeros.S {
		if i%3 == 0 {
			signedZeros.S[i] = negZero
		}
	}
	// Obstacle columns every 5 cells admit no intact block of four
	// 4x2 modules, so PlanCompact refills the shortfall.
	split := fullMask(17, 6)
	for y := 0; y < 6; y++ {
		for _, x := range []int{4, 9, 14} {
			split.Set(geom.Cell{X: x, Y: y}, false)
		}
	}
	holey := uniform(17, 6, 1)
	holey.S[3*17+2] = math.NaN()
	if pl, err := PlanCompact(holey, split, Options{Shape: ModuleShape{W: 4, H: 2}, Topology: panel.Topology{SeriesPerString: 2, Strings: 2}}); err != nil || len(pl.Warnings) == 0 {
		t.Fatalf("split block: PlanCompact = %v, %v; want a refilled holey block", pl, err)
	}
	small := ModuleShape{W: 4, H: 2}
	topo := func(n int) panel.Topology { return panel.Topology{SeriesPerString: 2, Strings: n / 2} }
	cases := map[string]rankingCase{
		"uniform":               {uniform(24, 12, 0.5), fullMask(24, 12), Options{Shape: small, Topology: topo(4)}},
		"uniform rotated":       {uniform(24, 12, 0.5), fullMask(24, 12), Options{Shape: small, Topology: topo(4), AllowRotation: true}},
		"signed zeros":          {signedZeros, fullMask(20, 12), Options{Shape: small, Topology: topo(4)}},
		"signed zeros anchored": {signedZeros, fullMask(20, 12), Options{Shape: small, Topology: topo(4), AnchorScore: true}},
		"gradient":              {gradientSuit(30, 12), fullMask(30, 12), Options{Shape: small, Topology: topo(6), AllowRotation: true}},
		"split block":           {holey, split, Options{Shape: small, Topology: topo(4)}},
		"split block anchored":  {holey, split, Options{Shape: small, Topology: topo(4), AnchorScore: true}},
		"paper shape":           {gradientSuit(40, 20), fullMask(40, 20), defaultOpts(8, 4)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkRanking(t, c, rand.New(rand.NewSource(1)))
		})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}}[seed%3]
		c := randomRankingCase(rng, 8+rng.Intn(20), 6+rng.Intn(12), 1+rng.Intn(4),
			rng.Intn(15), rng.Intn(20), shape, 2*(1+rng.Intn(4)), seed%2 == 0, seed%5 == 0)
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) { checkRanking(t, c, rng) })
	}
}

// FuzzCandidateRanking holds scoreCandidates, the shortfall ranking
// and the Plan, PlanCompact and PlanRandom results to the stable-sort
// reference on random tie-heavy grids with NaN cells and mask holes.
func FuzzCandidateRanking(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint8(2), uint8(5), uint8(10), uint8(0))
	f.Add(int64(2), uint8(12), uint8(8), uint8(1), uint8(0), uint8(0), uint8(7))
	f.Add(int64(3), uint8(30), uint8(16), uint8(4), uint8(20), uint8(30), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, w, h, levels, nanPct, holePct, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}, {W: 2, H: 2}}[flags>>2&3]
		modules := 2 * (1 + int(flags>>4&3))
		c := randomRankingCase(rng, 4+int(w%29), 3+int(h%21), 1+int(levels%5),
			int(nanPct%40), int(holePct%40), shape, modules, flags&1 != 0, flags&2 != 0)
		checkRanking(t, c, rng)
	})
}
