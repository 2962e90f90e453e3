package floorplan

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/panel"
)

// ModuleShape is the module footprint on the placement grid in cells
// (the paper's 160×80 cm module on the 20 cm grid is 8×4).
type ModuleShape struct {
	W, H int
}

// Validate checks the shape.
func (s ModuleShape) Validate() error {
	if s.W <= 0 || s.H <= 0 {
		return fmt.Errorf("floorplan: non-positive module shape %dx%d", s.W, s.H)
	}
	return nil
}

// Rect returns the footprint anchored (top-left) at c.
func (s ModuleShape) Rect(c geom.Cell) geom.Rect { return geom.RectAt(c, s.W, s.H) }

// ShapeOnGrid converts a module's mechanical footprint (metres) to
// grid cells of the given pitch. The paper chooses s so that module
// sides are integer multiples of it (§III-A); geometries that do not
// divide evenly are rejected rather than silently rounded.
func ShapeOnGrid(widthM, heightM, cellSizeM float64) (ModuleShape, error) {
	if cellSizeM <= 0 {
		return ModuleShape{}, fmt.Errorf("floorplan: non-positive cell size %g", cellSizeM)
	}
	toCells := func(m float64) (int, bool) {
		cells := m / cellSizeM
		rounded := math.Round(cells)
		return int(rounded), math.Abs(cells-rounded) < 1e-9 && rounded >= 1
	}
	w, okW := toCells(widthM)
	h, okH := toCells(heightM)
	if !okW || !okH {
		return ModuleShape{}, fmt.Errorf("floorplan: module %gx%g m is not an integer multiple of the %g m grid",
			widthM, heightM, cellSizeM)
	}
	return ModuleShape{W: w, H: h}, nil
}

// Diagonal returns the footprint diagonal in cells.
func (s ModuleShape) Diagonal() float64 {
	return math.Sqrt(float64(s.W*s.W + s.H*s.H))
}

// DistancePolicy selects how the §III-C distance-threshold filter and
// tie-break measure a candidate's remoteness from the already placed
// modules.
type DistancePolicy int

const (
	// PolicyChain (the default) measures distance to the previously
	// placed module — the series predecessor whose cable the paper's
	// wiring tie-breaker is about — with the threshold set to twice
	// the mean pairwise distance of the placed modules.
	PolicyChain DistancePolicy = iota
	// PolicyCentroid measures distance to the centroid of the placed
	// modules instead (alternative reading of §III-C; ablation A2).
	PolicyCentroid
	// PolicyNone disables the filter (ablation A2).
	PolicyNone
)

// String implements fmt.Stringer.
func (p DistancePolicy) String() string {
	switch p {
	case PolicyCentroid:
		return "centroid"
	case PolicyChain:
		return "chain"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("DistancePolicy(%d)", int(p))
	}
}

// Options configures the greedy planner.
type Options struct {
	// Shape is the module footprint in grid cells.
	Shape ModuleShape
	// Topology is the series/parallel interconnection (modules are
	// placed series-first).
	Topology panel.Topology
	// Policy selects the distance metric (default PolicyChain).
	Policy DistancePolicy
	// TieEpsilonRel is the relative suitability band treated as a
	// tie and resolved by distance to the placed modules. The paper
	// tie-breaks equal-suitability candidates by wiring distance; on
	// continuous suitability values an exact-equality tie never
	// fires, so a 3% band (the default) recovers the intended
	// behaviour: among near-equivalent cells, prefer the close one
	// (keeping strings spatially — hence temporally — coherent and
	// wiring short). Ablation A2 sweeps this. Set negative to force
	// exact ties.
	TieEpsilonRel float64
}

// distanceFactor scales the distance threshold: the paper's 2.
const distanceFactor = 2

func (o Options) withDefaults() Options {
	if o.TieEpsilonRel == 0 {
		o.TieEpsilonRel = 0.03
	}
	if o.TieEpsilonRel < 0 {
		o.TieEpsilonRel = 0
	}
	return o
}

// Placement is a series-first arrangement of module footprints.
type Placement struct {
	// Topology is the series/parallel interconnection; module k
	// belongs to string Topology.StringOf(k).
	Topology panel.Topology
	// Shape is the module footprint.
	Shape ModuleShape
	// Rects holds the module footprints in series-first electrical
	// order.
	Rects []geom.Rect
	// SuitabilitySum is the total candidate score of the chosen
	// positions (the greedy objective).
	SuitabilitySum float64
	// Warnings records deviations such as distance-threshold
	// fallbacks.
	Warnings []string
}

// Anchors returns the top-left cells of the placed modules.
func (p *Placement) Anchors() []geom.Cell {
	out := make([]geom.Cell, len(p.Rects))
	for i, r := range p.Rects {
		out[i] = r.Anchor()
	}
	return out
}

// CoveredCells returns every grid cell covered by the placement, in
// module order (module k owns cells [k*area, (k+1)*area)).
func (p *Placement) CoveredCells() []geom.Cell {
	area := p.Shape.W * p.Shape.H
	out := make([]geom.Cell, 0, len(p.Rects)*area)
	for _, r := range p.Rects {
		r.Cells(func(c geom.Cell) bool {
			out = append(out, c)
			return true
		})
	}
	return out
}

// candidates is the greedy's candidate set: every anchor (x, y) whose
// module footprint lies inside the mask with a valid score, named by
// its code y·W + x, so ascending codes order candidates by (y, x).
// score holds every code's footprint-mean score (FootprintMeans), NaN
// for a code that names no candidate; rank holds the candidates'
// codes, ranked by descending score, then ascending code. No two
// candidates share a code, so that order is total.
type candidates struct {
	w     int
	shape ModuleShape
	score []float64
	rank  *ranked[int32]
}

// scoreCandidates scores every anchor whose footprint lies fully
// inside the mask and ranks the valid ones. The ranking sorts on
// demand: the greedy reads a few hundred of several thousand
// candidates.
func scoreCandidates(suit *Suitability, mask *geom.Mask, opts Options) *candidates {
	c := &candidates{w: mask.W(), shape: opts.Shape, score: FootprintMeans(suit, mask, opts.Shape)}
	count := 0
	for _, v := range c.score {
		if !math.IsNaN(v) {
			count++
		}
	}
	codes := make([]int32, 0, count)
	for code, v := range c.score {
		if !math.IsNaN(v) {
			codes = append(codes, int32(code))
		}
	}
	c.rank = &ranked[int32]{items: codes, chunk: 16 * opts.Topology.Modules(), key: c.key, order: c.order}
	return c
}

func (c *candidates) key(code int32) float64 { return -c.score[code] }

// order ranks codes by descending score, then ascending code.
func (c *candidates) order(a, b int32) int {
	if sa, sb := c.score[a], c.score[b]; sa != sb {
		if sa > sb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a, b)
}

// footprint returns the module footprint a code names.
func (c *candidates) footprint(code int32) geom.Rect {
	return c.shape.Rect(geom.Cell{X: int(code) % c.w, Y: int(code) / c.w})
}

// ErrNoSpace reports that the greedy placer ran out of feasible
// positions before placing all modules.
type ErrNoSpace struct {
	Placed, Wanted int
}

// Error implements error.
func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("floorplan: only %d of %d modules could be placed", e.Placed, e.Wanted)
}

// Plan runs the paper's greedy floorplanning algorithm (§III-C,
// Fig. 5): candidates ranked by suitability, modules placed
// series-first, each at the best-ranked available position that
// passes the distance-threshold filter, with ties resolved by
// distance to the already placed modules; covered grid points are
// removed as placement proceeds.
//
// When no candidate passes the threshold, the best available one is
// used and a warning recorded (the paper's pseudo-code would silently
// skip the module).
func Plan(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	return placeRanked(scoreCandidates(suit, mask, opts), mask, opts)
}

// placeRanked is Plan's placement loop over the ranked candidates.
func placeRanked(cands *candidates, mask *geom.Mask, opts Options) (*Placement, error) {
	n := opts.Topology.Modules()
	if len(cands.rank.items) == 0 {
		return nil, &ErrNoSpace{Placed: 0, Wanted: n}
	}

	occ := newOccupancy(mask.W(), mask.H(), opts.Shape)
	pl := &Placement{Topology: opts.Topology, Shape: opts.Shape}
	var centers [][2]float64

	for k := 0; k < n; k++ {
		code := pickCandidate(cands, occ, centers, opts, true)
		if code < 0 {
			// Threshold too tight: fall back to the unconstrained
			// best and say so.
			code = pickCandidate(cands, occ, centers, opts, false)
			if code < 0 {
				return nil, &ErrNoSpace{Placed: k, Wanted: n}
			}
			pl.Warnings = append(pl.Warnings,
				fmt.Sprintf("module %d: no candidate within distance threshold; nearest best used", k))
		}
		rect := cands.footprint(code)
		occ.place(rect)
		pl.Rects = append(pl.Rects, rect)
		pl.SuitabilitySum += cands.score[code]
		cx, cy := rect.Center()
		centers = append(centers, [2]float64{cx, cy})
	}
	return pl, nil
}

// occupancy records which module footprints overlap a placed module,
// by candidate code (see candidates) over a w×h grid. Every candidate
// footprint lies inside the mask, so a candidate is available exactly
// when its code is not marked: placing a module marks the
// (2W−1)×(2H−1) anchors around it, and an availability test is one
// lookup.
type occupancy struct {
	w, h  int
	shape ModuleShape
	dead  []bool
}

func newOccupancy(w, h int, shape ModuleShape) *occupancy {
	return &occupancy{w: w, h: h, shape: shape, dead: make([]bool, w*h)}
}

// place marks every code whose footprint overlaps r.
func (o *occupancy) place(r geom.Rect) {
	for y := max(r.Y0-o.shape.H+1, 0); y < min(r.Y1, o.h); y++ {
		for x := max(r.X0-o.shape.W+1, 0); x < min(r.X1, o.w); x++ {
			o.dead[y*o.w+x] = true
		}
	}
}

// free reports whether the footprint code names overlaps no placed
// module.
func (o *occupancy) free(code int32) bool { return !o.dead[code] }

func prepare(suit *Suitability, mask *geom.Mask, opts *Options) error {
	if suit == nil || mask == nil {
		return fmt.Errorf("floorplan: nil suitability or mask")
	}
	if suit.W != mask.W() || suit.H != mask.H() {
		return fmt.Errorf("floorplan: suitability %dx%d does not match mask %dx%d",
			suit.W, suit.H, mask.W(), mask.H())
	}
	if err := opts.Shape.Validate(); err != nil {
		return err
	}
	if err := opts.Topology.Validate(); err != nil {
		return err
	}
	*opts = opts.withDefaults()
	return nil
}

// pickCandidate scans the ranked candidates and returns the code of
// the best available one, resolving suitability ties by the distance
// policy; with enforceThreshold set, candidates beyond the distance
// threshold are skipped. Returns -1 if none qualifies.
func pickCandidate(cands *candidates, occ *occupancy, centers [][2]float64, opts Options, enforceThreshold bool) int32 {
	threshold := math.Inf(1)
	if enforceThreshold && opts.Policy != PolicyNone && len(centers) > 0 {
		threshold = distanceFactor * thresholdBase(centers, opts.Shape)
	}
	best := int32(-1)
	bestScore := math.NaN()
	bestDist := math.Inf(1)
	for i := 0; cands.rank.has(i); i++ {
		code := cands.rank.items[i]
		score := cands.score[code]
		if !math.IsNaN(bestScore) && score < bestScore-opts.TieEpsilonRel*math.Abs(bestScore) {
			break // ranked list: no better-scoring candidate follows
		}
		if !occ.free(code) {
			continue
		}
		d := candidateDistance(cands.footprint(code), centers, opts.Policy)
		if d > threshold {
			continue
		}
		if math.IsNaN(bestScore) {
			// First qualifying candidate pins the tie band.
			best, bestScore, bestDist = code, score, d
			continue
		}
		if d < bestDist {
			best, bestDist = code, d
		}
	}
	return best
}

// thresholdBase is the paper's "average distance of the already
// placed modules": the mean pairwise distance between placed module
// centers, floored by the module diagonal so that a compact seed does
// not strangle the search. (A centroid-spread reading proved too
// strict: it forbids the elongated band-shaped placements the paper's
// Fig. 7 shows along irradiance ridges.)
func thresholdBase(centers [][2]float64, shape ModuleShape) float64 {
	var mean float64
	if len(centers) > 1 {
		var sum float64
		var pairs int
		for i := 0; i < len(centers); i++ {
			for j := i + 1; j < len(centers); j++ {
				sum += math.Hypot(centers[i][0]-centers[j][0], centers[i][1]-centers[j][1])
				pairs++
			}
		}
		mean = sum / float64(pairs)
	}
	if diag := shape.Diagonal(); mean < diag {
		mean = diag
	}
	return mean
}

func centroid(centers [][2]float64) (float64, float64) {
	var cx, cy float64
	for _, c := range centers {
		cx += c[0]
		cy += c[1]
	}
	n := float64(len(centers))
	return cx / n, cy / n
}

// candidateDistance measures a candidate footprint's remoteness from
// the placed modules under the given policy (0 when nothing is placed
// yet).
func candidateDistance(rect geom.Rect, centers [][2]float64, policy DistancePolicy) float64 {
	if len(centers) == 0 {
		return 0
	}
	x, y := rect.Center()
	switch policy {
	case PolicyChain:
		prev := centers[len(centers)-1]
		return math.Hypot(x-prev[0], y-prev[1])
	case PolicyNone:
		return 0
	default: // PolicyCentroid
		cx, cy := centroid(centers)
		return math.Hypot(x-cx, y-cy)
	}
}
