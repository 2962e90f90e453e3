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

// The candidate ranking used to sort every candidate with
// slices.SortStableFunc and an eager cmp.Or comparator, fillShortfall
// re-ranked a fresh scoreCandidates pass with a second full stable sort
// that recomputed both distances per comparison, and the compact block
// sweep re-summed every slot of every position. The functions below
// keep that code as the reference the ranking on demand, the O(1)
// availability test and the prefix-table sweep must match bit for bit.

// candidate is a scored anchor position, as the reference ranking
// lists it.
type candidate struct {
	anchor geom.Cell
	score  float64
}

// refScoreCandidates is the stable-sort scoreCandidates.
func refScoreCandidates(suit *Suitability, mask *geom.Mask, opts Options) []candidate {
	var cands []candidate
	shape := opts.Shape
	area := float64(shape.W * shape.H)
	for y := 0; y+shape.H <= mask.H(); y++ {
		for x := 0; x+shape.W <= mask.W(); x++ {
			anchor := geom.Cell{X: x, Y: y}
			rect := shape.Rect(anchor)
			if !mask.AllSet(rect) {
				continue
			}
			score := refFootprintMean(suit, rect, area)
			if math.IsNaN(score) {
				continue
			}
			cands = append(cands, candidate{anchor: anchor, score: score})
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score),
			cmp.Compare(a.anchor.Y, b.anchor.Y), cmp.Compare(a.anchor.X, b.anchor.X))
	})
	return cands
}

// refFootprintMean sums rect's cells row-major through Rect.Cells and
// divides by area; NaN when a cell is NaN. The caller checks the mask.
func refFootprintMean(suit *Suitability, rect geom.Rect, area float64) float64 {
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
		return math.NaN()
	}
	return sum / area
}

// checkSlotTable holds every slot score, and FootprintMeans, to the
// per-rect reference sum.
func checkSlotTable(t *testing.T, table slotTable, suit *Suitability, mask *geom.Mask, shape ModuleShape) {
	t.Helper()
	exported := FootprintMeans(suit, mask, shape)
	area := float64(shape.W * shape.H)
	for ay := 0; ay < table.ah; ay++ {
		for ax := 0; ax < table.aw; ax++ {
			rect := shape.Rect(geom.Cell{X: ax, Y: ay})
			want := math.NaN()
			if mask.AllSet(rect) {
				want = refFootprintMean(suit, rect, area)
			}
			got := table.scores[ay*table.w+ax]
			if math.IsNaN(got) != math.IsNaN(want) || !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("slot %v = %g, reference %g", geom.Cell{X: ax, Y: ay}, got, want)
			}
			if e := exported[ay*table.w+ax]; math.Float64bits(e) != math.Float64bits(got) {
				t.Fatalf("FootprintMeans %v = %g, slot table %g", geom.Cell{X: ax, Y: ay}, e, got)
			}
		}
	}
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

// refBestBlock is the full block sweep: every slot of every position
// of every factorisation summed in row-major slot order.
func refBestBlock(t slotTable, mask *geom.Mask, opts Options) (slots []geom.Cell, intact bool) {
	n := opts.Topology.Modules()
	type blockPos struct {
		score float64
		slots []geom.Cell
	}
	var bestIntact, bestHoley *blockPos
	all := make([]geom.Cell, 0, n)
	for rows := 1; rows <= n; rows++ {
		if n%rows != 0 {
			continue
		}
		cols := n / rows
		bw := cols * opts.Shape.W
		bh := rows * opts.Shape.H
		if bw > mask.W() || bh > mask.H() {
			continue
		}
		for y0 := 0; y0+bh <= mask.H(); y0++ {
			for x0 := 0; x0+bw <= mask.W(); x0++ {
				var sum float64
				var holes int
				all = all[:0]
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						anchor := geom.Cell{X: x0 + c*opts.Shape.W, Y: y0 + r*opts.Shape.H}
						s, ok := t.at(anchor)
						if !ok {
							holes++
							continue
						}
						all = append(all, anchor)
						sum += s
					}
				}
				if holes == 0 {
					if bestIntact == nil || sum > bestIntact.score {
						bestIntact = &blockPos{sum, slices.Clone(all)}
					}
					continue
				}
				if len(all) == 0 {
					continue
				}
				if bestHoley == nil || sum > bestHoley.score {
					bestHoley = &blockPos{sum, slices.Clone(all)}
				}
			}
		}
	}
	switch {
	case bestIntact != nil:
		return bestIntact.slots, true
	case bestHoley != nil:
		return bestHoley.slots, false
	default:
		return nil, false
	}
}

// refCandidates turns the reference ranking into a candidate set whose
// ranking is already sorted, for the placement loops.
func refCandidates(ref []candidate, mask *geom.Mask, opts Options) *candidates {
	c := &candidates{w: mask.W(), shape: opts.Shape}
	c.score = make([]float64, mask.W()*mask.H())
	fillNaN(c.score)
	codes := make([]int32, len(ref))
	for i, cd := range ref {
		code := cd.anchor.Y*mask.W() + cd.anchor.X
		c.score[code] = cd.score
		codes[i] = int32(code)
	}
	c.rank = &ranked[int32]{items: codes, sorted: len(codes)}
	return c
}

// candidateAt decodes rank i of a candidate set.
func candidateAt(c *candidates, i int) candidate {
	code := c.rank.items[i]
	return candidate{anchor: c.footprint(code).Anchor(), score: c.score[code]}
}

func refPlan(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	return placeRanked(refCandidates(refScoreCandidates(suit, mask, opts), mask, opts), mask, opts)
}

func refPlanCompact(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	slots, intact := refBestBlock(newSlotTable(suit, mask, opts.Shape), mask, opts)
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
// stable-sort reference on one case. It reports whether the greedy
// read past the first sorted chunk of its ranking.
func checkRanking(t *testing.T, c rankingCase, rng *rand.Rand) (pastFirstChunk bool) {
	t.Helper()
	opts := c.opts
	if err := prepare(c.suit, c.mask, &opts); err != nil {
		t.Fatal(err)
	}
	want := refScoreCandidates(c.suit, c.mask, opts)
	got := scoreCandidates(c.suit, c.mask, opts)
	if len(got.rank.items) != len(want) {
		t.Fatalf("scoreCandidates: %d candidates, reference %d", len(got.rank.items), len(want))
	}
	for i := 0; got.rank.has(i); i++ {
		g, w := candidateAt(got, i), want[i]
		if g.anchor != w.anchor || math.Float64bits(g.score) != math.Float64bits(w.score) {
			t.Fatalf("scoreCandidates[%d] = %+v, reference %+v", i, g, w)
		}
	}
	greedy := scoreCandidates(c.suit, c.mask, opts)
	first := greedy.rank.chunk
	if pl, err := placeRanked(greedy, c.mask, opts); err == nil {
		checkOccupancy(t, c.mask, opts.Shape, pl.Rects)
	}
	pastFirstChunk = greedy.rank.sorted > first

	// The shortfall ranking, from the holey block PlanCompact would
	// fill and from random partial blocks.
	table := newSlotTable(c.suit, c.mask, opts.Shape)
	checkSlotTable(t, table, c.suit, c.mask, opts.Shape)
	var slotSets [][]geom.Cell
	if slots, intact := table.bestBlock(c.mask, opts); slots != nil && !intact {
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
		want := 1 + rng.Intn(opts.Topology.Modules())
		for _, i := range rng.Perm(len(valid)) {
			rect := opts.Shape.Rect(valid[i])
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
		occ := newOccupancy(c.mask.W(), c.mask.H(), opts.Shape)
		for _, s := range slots {
			avail.SetRect(opts.Shape.Rect(s), false)
			occ.place(opts.Shape.Rect(s))
		}
		gotNear, wantNear := table.nearest(slots, occ, opts), refNearest(slots, avail, c.suit, opts)
		if len(gotNear.items) != len(wantNear) {
			t.Fatalf("nearest(%v): %d candidates, reference %d", slots, len(gotNear.items), len(wantNear))
		}
		for i := 0; gotNear.has(i); i++ {
			g, w := gotNear.items[i], wantNear[i]
			if g.anchor != w.anchor || math.Float64bits(g.score) != math.Float64bits(w.score) {
				t.Fatalf("nearest(%v)[%d] = %v (%g), reference %v (%g)", slots, i, g.anchor, g.score, w.anchor, w.score)
			}
		}
		g := placementKey(fillShortfall(slots, table, c.suit, c.mask, opts))
		w := placementKey(refFillShortfall(slots, c.suit, c.mask, opts))
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
	}
	for _, p := range planners {
		if g, w := placementKey(p.got()), placementKey(p.want()); g != w {
			t.Fatalf("%s:\n got  %s\n want %s", p.name, g, w)
		}
	}
	return pastFirstChunk
}

// randomRankingCase builds a tie-heavy case: suitability quantized to
// a few levels (zeros of both signs), NaN cells and mask holes.
func randomRankingCase(rng *rand.Rand, w, h, levels, nanPct, holePct int, shape ModuleShape, modules int) rankingCase {
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
		Shape:    shape,
		Topology: panel.Topology{SeriesPerString: 2, Strings: modules / 2},
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
		"uniform":                {uniform(24, 12, 0.5), fullMask(24, 12), Options{Shape: small, Topology: topo(4)}},
		"uniform 8 modules":      {uniform(24, 12, 0.5), fullMask(24, 12), Options{Shape: small, Topology: topo(8)}},
		"signed zeros":           {signedZeros, fullMask(20, 12), Options{Shape: small, Topology: topo(4)}},
		"signed zeros centroid":  {signedZeros, fullMask(20, 12), Options{Shape: small, Topology: topo(4), Policy: PolicyCentroid}},
		"gradient":               {gradientSuit(30, 12), fullMask(30, 12), Options{Shape: small, Topology: topo(6)}},
		"portrait":               {uniform(20, 14, 0.5), fullMask(20, 14), Options{Shape: ModuleShape{W: 2, H: 4}, Topology: topo(4)}},
		"split block":            {holey, split, Options{Shape: small, Topology: topo(4)}},
		"split block exact ties": {holey, split, Options{Shape: small, Topology: topo(4), TieEpsilonRel: -1}},
		"paper shape":            {gradientSuit(40, 20), fullMask(40, 20), defaultOpts(8, 4)},
	}
	past := 0
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if checkRanking(t, c, rand.New(rand.NewSource(1))) {
				past++
			}
		})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}}[seed%3]
		c := randomRankingCase(rng, 8+rng.Intn(20), 6+rng.Intn(12), 1+rng.Intn(4),
			rng.Intn(15), rng.Intn(20), shape, 2*(1+rng.Intn(4)))
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) {
			if checkRanking(t, c, rng) {
				past++
			}
		})
	}
	// The sorted-on-demand ranking must be exercised past its first
	// chunk, where the greedy's reads trigger a second selection.
	if past < 5 {
		t.Errorf("the greedy read past the first sorted chunk in %d cases, want at least 5", past)
	}
}

// FuzzCandidateRanking holds scoreCandidates, the shortfall ranking
// and the Plan and PlanCompact results to the stable-sort reference on
// random tie-heavy grids with NaN cells and mask holes. Bits 0–1 of
// flags are unused; they once chose rotation and anchor scores, and
// the seed corpus still sets them.
func FuzzCandidateRanking(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint8(2), uint8(5), uint8(10), uint8(0))
	f.Add(int64(2), uint8(12), uint8(8), uint8(1), uint8(0), uint8(0), uint8(7))
	f.Add(int64(3), uint8(30), uint8(16), uint8(4), uint8(20), uint8(30), uint8(3))
	f.Add(int64(4), uint8(56), uint8(37), uint8(0), uint8(0), uint8(5), uint8(0xf0))
	f.Add(int64(5), uint8(48), uint8(30), uint8(2), uint8(3), uint8(3), uint8(0x71))
	f.Fuzz(func(t *testing.T, seed int64, w, h, levels, nanPct, holePct, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}, {W: 2, H: 2}}[flags>>2&3]
		// Up to 32 modules on grids up to 60x40: large tie bands make
		// the greedy read past the first sorted chunk of 16 per module.
		modules := 2 * (1 + int(flags>>4))
		c := randomRankingCase(rng, 4+int(w%57), 3+int(h%38), 1+int(levels%5),
			int(nanPct%40), int(holePct%40), shape, modules)
		checkRanking(t, c, rng)
	})
}

// checkOccupancy holds the anchor kill mask to a mask scan: after
// placing rects, a candidate code is free exactly when its footprint,
// inside the mask, overlaps none of them.
func checkOccupancy(t *testing.T, mask *geom.Mask, shape ModuleShape, rects []geom.Rect) {
	t.Helper()
	occ := newOccupancy(mask.W(), mask.H(), shape)
	avail := mask.Clone()
	for _, r := range rects {
		occ.place(r)
		avail.SetRect(r, false)
	}
	for y := 0; y+shape.H <= mask.H(); y++ {
		for x := 0; x+shape.W <= mask.W(); x++ {
			rect := shape.Rect(geom.Cell{X: x, Y: y})
			if !mask.AllSet(rect) {
				continue
			}
			if got, want := occ.free(int32(y*mask.W()+x)), avail.AllSet(rect); got != want {
				t.Fatalf("%v after placing %v: free = %v, mask scan %v", rect, rects, got, want)
			}
		}
	}
}

// blockCase is one compact-sweep configuration.
type blockCase struct {
	suit *Suitability
	mask *geom.Mask
	opts Options
}

// checkBlock holds the prefix-table sweep, and PlanCompact on top of
// it, to the full sweep.
func checkBlock(t *testing.T, c blockCase) {
	t.Helper()
	opts := c.opts
	if err := prepare(c.suit, c.mask, &opts); err != nil {
		t.Fatal(err)
	}
	table := newSlotTable(c.suit, c.mask, opts.Shape)
	gotSlots, gotIntact := table.bestBlock(c.mask, opts)
	wantSlots, wantIntact := refBestBlock(table, c.mask, opts)
	if !slices.Equal(gotSlots, wantSlots) || gotIntact != wantIntact {
		t.Fatalf("bestBlock = %v (intact %v), full sweep %v (intact %v)", gotSlots, gotIntact, wantSlots, wantIntact)
	}
	if g, w := placementKey(PlanCompact(c.suit, c.mask, c.opts)), placementKey(refPlanCompact(c.suit, c.mask, c.opts)); g != w {
		t.Fatalf("PlanCompact:\n got  %s\n want %s", g, w)
	}
}

// randomBlockCase builds a sweep case whose slot scores are sums of
// non-dyadic levels, negatives and signed zeros among them, so block
// totals that are equal in exact arithmetic round differently along
// different summation orders; cells are NaN and mask holes at the
// given rates.
func randomBlockCase(rng *rand.Rand, w, h, levels, nanPct, holePct int, shape ModuleShape, topo panel.Topology) blockCase {
	suit := &Suitability{W: w, H: h, S: make([]float64, w*h)}
	for i := range suit.S {
		v := float64(rng.Intn(levels)-levels/3) * 0.1
		switch {
		case rng.Intn(100) < nanPct:
			v = math.NaN()
		case v == 0 && rng.Intn(2) == 0:
			v = math.Copysign(0, -1)
		}
		suit.S[i] = v
	}
	mask := fullMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Intn(100) < holePct {
				mask.Set(geom.Cell{X: x, Y: y}, false)
			}
		}
	}
	return blockCase{suit, mask, Options{Shape: shape, Topology: topo}}
}

func TestCompactBlockMatchesSweep(t *testing.T) {
	fill := func(w, h int, v func(x, y int) float64) *Suitability {
		s := &Suitability{W: w, H: h, S: make([]float64, w*h)}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				s.S[y*w+x] = v(x, y)
			}
		}
		return s
	}
	topo := func(m, n int) panel.Topology { return panel.Topology{SeriesPerString: m, Strings: n} }
	// Obstacle columns every 5 cells admit no intact block of four 4x2
	// modules in any factorisation.
	split := fullMask(17, 6)
	for y := 0; y < 6; y++ {
		for _, x := range []int{4, 9, 14} {
			split.Set(geom.Cell{X: x, Y: y}, false)
		}
	}
	negZero := math.Copysign(0, -1)
	nanInside := fill(30, 16, func(x, y int) float64 { return 0.1 * float64((x*7+y*3)%11) })
	for i := 5; i < len(nanInside.S); i += 37 {
		nanInside.S[i] = math.NaN()
	}
	cases := map[string]blockCase{
		// Every block total is equal in exact arithmetic; the prefix
		// table's totals are not, so every position must be re-summed.
		"plateau": {fill(40, 24, func(x, y int) float64 { return 0.1 }), fullMask(40, 24),
			Options{Shape: ModuleShape{W: 4, H: 2}, Topology: topo(4, 2)}},
		"plateau negative": {fill(33, 19, func(x, y int) float64 { return -0.7 }), fullMask(33, 19),
			Options{Shape: ModuleShape{W: 3, H: 2}, Topology: topo(3, 2)}},
		"all holey": {fill(17, 6, func(x, y int) float64 { return 0.1 * float64(x%3+y) }), split,
			Options{Shape: ModuleShape{W: 4, H: 2}, Topology: topo(2, 2)}},
		"prime N": {fill(40, 20, func(x, y int) float64 { return 0.3 * float64((x+y)%4) }), fullMask(40, 20),
			Options{Shape: ModuleShape{W: 2, H: 1}, Topology: topo(7, 1)}},
		"six factorisations": {fill(30, 16, func(x, y int) float64 { return 0.1 * float64((x*x+y)%5) }), fullMask(30, 16),
			Options{Shape: ModuleShape{W: 2, H: 1}, Topology: topo(4, 3)}},
		"1x1 shape": {fill(12, 9, func(x, y int) float64 { return 0.1 * float64(x%2) }), fullMask(12, 9),
			Options{Shape: ModuleShape{W: 1, H: 1}, Topology: topo(3, 2)}},
		"signed zeros and negatives": {fill(24, 12, func(x, y int) float64 {
			return []float64{negZero, 0, -0.3, -1.7, 0.1}[(x+2*y)%5]
		}), fullMask(24, 12), Options{Shape: ModuleShape{W: 2, H: 2}, Topology: topo(2, 2)}},
		"NaN cells inside the mask": {nanInside, fullMask(30, 16),
			Options{Shape: ModuleShape{W: 3, H: 2}, Topology: topo(4, 2)}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkBlock(t, c) })
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 1, H: 1}, {W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}}[seed%4]
		tp := []panel.Topology{topo(2, 2), topo(3, 2), topo(7, 1), topo(4, 3), topo(4, 4)}[seed%5]
		c := randomBlockCase(rng, 6+rng.Intn(30), 4+rng.Intn(20), 1+rng.Intn(6),
			rng.Intn(10), rng.Intn(25), shape, tp)
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) { checkBlock(t, c) })
	}
}

// FuzzCompactBlock holds the prefix-table block sweep and PlanCompact
// to the full sweep on random grids of non-dyadic, negative and
// signed-zero scores with NaN cells and mask holes.
func FuzzCompactBlock(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(16), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(24), uint8(12), uint8(4), uint8(5), uint8(10), uint8(0x13))
	f.Add(int64(3), uint8(17), uint8(9), uint8(6), uint8(20), uint8(40), uint8(0x2a))
	f.Fuzz(func(t *testing.T, seed int64, w, h, levels, nanPct, holePct, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		shape := []ModuleShape{{W: 1, H: 1}, {W: 2, H: 1}, {W: 3, H: 2}, {W: 4, H: 2}}[flags&3]
		tp := []panel.Topology{
			{SeriesPerString: 1, Strings: 1}, {SeriesPerString: 2, Strings: 2}, {SeriesPerString: 3, Strings: 2},
			{SeriesPerString: 7, Strings: 1}, {SeriesPerString: 4, Strings: 3}, {SeriesPerString: 4, Strings: 4},
			{SeriesPerString: 5, Strings: 1}, {SeriesPerString: 8, Strings: 4},
		}[flags>>2&7]
		c := randomBlockCase(rng, 2+int(w%40), 2+int(h%24), 1+int(levels%8),
			int(nanPct%30), int(holePct%50), shape, tp)
		checkBlock(t, c)
	})
}
