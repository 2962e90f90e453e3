// Package objective is the shared placement objective of the
// optimizer layer: the suitability sum of the placed modules minus a
// wiring-length penalty (the combined criterion of the annealing
// extension, ablation A4, generalising the paper's §III-C greedy
// score). Every placer — greedy, branch and bound, the multi-start
// annealing walks — searches this one function through one of two
// evaluation paths:
//
//   - a precomputed per-anchor footprint score table, built once per
//     (suitability, mask, shape), so scoring a candidate position is a
//     table lookup instead of a footprint re-sum;
//   - an incrementally maintained state (occupancy index, per-module
//     scores, per-string wiring gap cells) that prices a
//     single-module relocation in O(1) — DeltaMove touches one table
//     entry and at most two string gaps — instead of re-summing the
//     whole placement and re-running the wiring estimator.
//
// Value() folds the incremental state deterministically (module-index
// order for scores, string order for wiring), and FromScratch
// recomputes the same folds from the raw suitability grid — the two
// are bit-identical along any move trace, which equivalence tests pin
// down. That exactness is what lets search strategies trust millions
// of cheap delta evaluations.
package objective

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
	"repro/internal/wiring"
)

// DefaultWiringWeight converts extra cable metres into objective
// units (cable is cheap — §V-C — so the penalty is a gentle
// regulariser).
const DefaultWiringWeight = 0.05

// Params fixes the objective: module geometry, electrical topology
// and the wiring penalty.
type Params struct {
	// Shape is the module footprint in grid cells (required).
	Shape floorplan.ModuleShape
	// Topology is the series/parallel interconnection. It may be left
	// zero when only the score table is used (ForEachAnchor, ScoreAt);
	// Bind requires it.
	Topology panel.Topology
	// WiringWeight prices extra cable metres in objective units. Zero
	// disables the penalty; use DefaultWiringWeight for the standard
	// annealer objective.
	WiringWeight float64
	// Spec converts wiring gap cells to metres (zero value defaults
	// to AWG10 at 0.2 m cells).
	Spec wiring.Spec
}

func (p Params) withDefaults() Params {
	if p.Spec == (wiring.Spec{}) {
		p.Spec = wiring.AWG10(0.2)
	}
	return p
}

// Objective evaluates placements of Params.Shape modules on one
// (suitability, mask) pair. The score table is immutable after New
// and shared by Fork; the bound placement state is private per
// instance.
type Objective struct {
	suit *floorplan.Suitability
	mask *geom.Mask
	p    Params

	// Immutable after New, shared across forks.
	aw, ah int       // anchor lattice dimensions
	table  []float64 // footprint-mean score of anchor (x, y) at y·W + x; NaN = infeasible

	// wPerCell = WiringWeight · Spec.CellSizeM, hoisted for DeltaMove
	// (only the delta uses it; Value/FromScratch keep the documented
	// per-string fold).
	wPerCell float64

	// Incremental placement state (nil until Bind).
	rects  []geom.Rect
	scores []float64  // per-module table scores, module-index order
	occ    *geom.Mask // true = covered by a module
	gaps   []int      // per-string wiring gap cells
}

// New precomputes the per-anchor score table with
// floorplan.FootprintMeans, the table the planners rank: every anchor
// whose footprint lies fully inside the mask with no NaN suitability
// cell gets its footprint-mean score; every other anchor is NaN. Cost
// is one pass over the grid, paid once and amortised over every
// subsequent lookup, move and search node.
func New(suit *floorplan.Suitability, mask *geom.Mask, p Params) (*Objective, error) {
	if suit == nil || mask == nil {
		return nil, fmt.Errorf("objective: nil suitability or mask")
	}
	if suit.W != mask.W() || suit.H != mask.H() {
		return nil, fmt.Errorf("objective: suitability %dx%d does not match mask %dx%d",
			suit.W, suit.H, mask.W(), mask.H())
	}
	if err := p.Shape.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	if err := p.Spec.Validate(); err != nil {
		return nil, err
	}
	aw := mask.W() - p.Shape.W + 1
	ah := mask.H() - p.Shape.H + 1
	if aw < 1 || ah < 1 {
		return nil, fmt.Errorf("objective: module %dx%d does not fit the %dx%d grid",
			p.Shape.W, p.Shape.H, mask.W(), mask.H())
	}
	return &Objective{suit: suit, mask: mask, p: p, aw: aw, ah: ah,
		table:    floorplan.FootprintMeans(suit, mask, p.Shape),
		wPerCell: p.WiringWeight * p.Spec.CellSizeM}, nil
}

// footprintScore is FromScratch's own footprint score, kept apart
// from the table as its independent check: the row-major sum of the
// footprint's suitability cells divided by the footprint area, or NaN
// when the footprint leaves the mask or covers a NaN cell. It sums in
// the table's order, so table entries and from-scratch scores agree
// to the bit.
func footprintScore(suit *floorplan.Suitability, mask *geom.Mask, rect geom.Rect, area float64) float64 {
	if !mask.AllSet(rect) {
		return math.NaN()
	}
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

// Params returns the objective's parameters (defaults resolved).
func (o *Objective) Params() Params { return o.p }

// Fork returns a new Objective sharing the immutable score table but
// with independent placement state — the cheap way to run many
// searches (multi-start restarts, parallel workers) over one
// precomputation.
func (o *Objective) Fork() *Objective {
	return &Objective{suit: o.suit, mask: o.mask, p: o.p, aw: o.aw, ah: o.ah,
		table: o.table, wPerCell: o.wPerCell}
}

// ScoreAt returns the precomputed footprint score of the given anchor
// (NaN when the anchor is infeasible or out of the anchor lattice).
func (o *Objective) ScoreAt(anchor geom.Cell) float64 {
	if anchor.X < 0 || anchor.X >= o.aw || anchor.Y < 0 || anchor.Y >= o.ah {
		return math.NaN()
	}
	return o.table[anchor.Y*o.mask.W()+anchor.X]
}

// AnchorDims returns the anchor lattice dimensions (the valid anchor
// range is [0, W) x [0, H)).
func (o *Objective) AnchorDims() (w, h int) { return o.aw, o.ah }

// ForEachAnchor calls fn for every feasible anchor with its
// precomputed score, row-major — the candidate enumeration shared by
// branch and bound and any other table-driven search.
func (o *Objective) ForEachAnchor(fn func(anchor geom.Cell, score float64)) {
	for y := 0; y < o.ah; y++ {
		for x := 0; x < o.aw; x++ {
			if s := o.table[y*o.mask.W()+x]; !math.IsNaN(s) {
				fn(geom.Cell{X: x, Y: y}, s)
			}
		}
	}
}

// Bind sets the placement state the incremental evaluation operates
// on: rects must hold Topology.Modules() series-first footprints of
// the objective's shape, mutually disjoint and individually feasible.
// The slice is copied.
func (o *Objective) Bind(rects []geom.Rect) error {
	if err := o.p.Topology.Validate(); err != nil {
		return fmt.Errorf("objective: Bind needs a topology: %w", err)
	}
	n := o.p.Topology.Modules()
	if len(rects) != n {
		return fmt.Errorf("objective: %d rects for %s topology (want %d)", len(rects), o.p.Topology, n)
	}
	occ := geom.NewMask(o.mask.W(), o.mask.H())
	scores := make([]float64, n)
	for k, r := range rects {
		if r.W() != o.p.Shape.W || r.H() != o.p.Shape.H {
			return fmt.Errorf("objective: module %d footprint %v is not the %dx%d shape",
				k, r, o.p.Shape.W, o.p.Shape.H)
		}
		s := o.ScoreAt(r.Anchor())
		if math.IsNaN(s) {
			return fmt.Errorf("objective: module %d at %v is infeasible", k, r.Anchor())
		}
		if occ.AnySet(r) {
			return fmt.Errorf("objective: module %d at %v overlaps an earlier module", k, r.Anchor())
		}
		occ.SetRect(r, true)
		scores[k] = s
	}
	m := o.p.Topology.SeriesPerString
	gaps := make([]int, o.p.Topology.Strings)
	for j := range gaps {
		gaps[j] = wiring.ChainOverheadCells(rects[j*m : (j+1)*m])
	}
	o.rects = append(o.rects[:0], rects...)
	o.scores = scores
	o.occ = occ
	o.gaps = gaps
	return nil
}

// Rects returns a copy of the bound placement footprints.
func (o *Objective) Rects() []geom.Rect {
	return append([]geom.Rect(nil), o.rects...)
}

// WiringCells returns the bound placement's total wiring gap in cells.
func (o *Objective) WiringCells() int {
	total := 0
	for _, g := range o.gaps {
		total += g
	}
	return total
}

// Value folds the incremental state into the objective value:
// per-module scores summed in module-index order, minus WiringWeight
// times the per-string cable metres summed in string order. The fold
// orders match FromScratch exactly, so the two agree to the bit.
func (o *Objective) Value() float64 {
	if o.rects == nil {
		return math.NaN()
	}
	var sum float64
	for _, s := range o.scores {
		sum += s
	}
	var meters float64
	for _, g := range o.gaps {
		meters += float64(g) * o.p.Spec.CellSizeM
	}
	return sum - o.p.WiringWeight*meters
}

// FromScratch evaluates an arbitrary placement with no incremental
// state: every footprint re-summed from the suitability grid, the
// wiring estimator re-run over every string. It is the reference the
// incremental path is verified against, and the per-move cost the
// optimizer layer exists to avoid.
func (o *Objective) FromScratch(rects []geom.Rect) (float64, error) {
	if err := o.p.Topology.Validate(); err != nil {
		return 0, fmt.Errorf("objective: FromScratch needs a topology: %w", err)
	}
	if len(rects) != o.p.Topology.Modules() {
		return 0, fmt.Errorf("objective: %d rects for %s topology", len(rects), o.p.Topology)
	}
	area := float64(o.p.Shape.W * o.p.Shape.H)
	var sum float64
	for k, r := range rects {
		s := footprintScore(o.suit, o.mask, r, area)
		if math.IsNaN(s) {
			return 0, fmt.Errorf("objective: module %d at %v is infeasible", k, r.Anchor())
		}
		sum += s
	}
	extra, err := o.p.Spec.PlacementOverheadMeters(rects, o.p.Topology.SeriesPerString)
	if err != nil {
		return 0, err
	}
	return sum - o.p.WiringWeight*extra, nil
}

// Move is a prepared single-module relocation: the O(1) pricing of
// DeltaMove plus everything Apply needs to commit it, so an accepted
// move is not feasibility-checked or re-priced a second time — the
// hot loop of the annealing strategies.
type Move struct {
	k      int
	rect   geom.Rect
	score  float64
	dCells int
	// Delta is the objective change the move would cause.
	Delta float64
}

// Prepare prices relocating module k to anchor without applying it:
// one table lookup for the score change plus the at most two string
// gaps the move touches — O(1) in both roof size and module count.
// ok is false when the move is infeasible: the anchor must carry a
// valid table score and the destination footprint must be free of
// every other module (overlap with module k's own current cells is
// fine). This is the single hottest function of the optimizer layer
// (every proposal of every annealing walk), so the checks are
// written out flat.
func (o *Objective) Prepare(k int, anchor geom.Cell) (m Move, ok bool) {
	if o.rects == nil || k < 0 || k >= len(o.rects) {
		return Move{}, false
	}
	if anchor.X < 0 || anchor.X >= o.aw || anchor.Y < 0 || anchor.Y >= o.ah {
		return Move{}, false
	}
	score := o.table[anchor.Y*o.mask.W()+anchor.X]
	if math.IsNaN(score) {
		return Move{}, false
	}
	newRect := o.p.Shape.Rect(anchor)
	if o.occ.AnySet(newRect) {
		// Something is covered; the move is still legal if it is only
		// module k's own current footprint.
		old := o.rects[k]
		free := true
		newRect.Cells(func(c geom.Cell) bool {
			if o.occ.Get(c) && !old.Contains(c) {
				free = false
				return false
			}
			return true
		})
		if !free {
			return Move{}, false
		}
	}
	dCells := o.moveGapDelta(k, newRect)
	return Move{
		k:      k,
		rect:   newRect,
		score:  score,
		dCells: dCells,
		Delta:  (score - o.scores[k]) - o.wPerCell*float64(dCells),
	}, true
}

// Apply commits a prepared move. The placement state must not have
// changed since Prepare (apply-or-drop immediately, as the annealers
// do); a stale token corrupts the incremental state.
func (o *Objective) Apply(m Move) {
	o.gaps[o.p.Topology.StringOf(m.k)] += m.dCells
	o.occ.SetRect(o.rects[m.k], false)
	o.occ.SetRect(m.rect, true)
	o.rects[m.k] = m.rect
	o.scores[m.k] = m.score
}

// DeltaMove prices relocating module k to anchor without applying it
// (Prepare without the token). ok is false when the move is
// infeasible.
func (o *Objective) DeltaMove(k int, anchor geom.Cell) (delta float64, ok bool) {
	m, ok := o.Prepare(k, anchor)
	if !ok {
		return 0, false
	}
	return m.Delta, true
}

// moveGapDelta returns the change in module k's string gap cells if
// its footprint became newRect: only the hops to its series
// predecessor and successor are affected. The wiring helper (and the
// geom.GapDist underneath) is simple enough to inline across
// packages, so the hot path pays no call overhead and the gap metric
// has exactly one implementation.
func (o *Objective) moveGapDelta(k int, newRect geom.Rect) int {
	m := o.p.Topology.SeriesPerString
	pos := k % m
	old := o.rects[k]
	d := 0
	if pos > 0 {
		prev := o.rects[k-1]
		d += wiring.PairOverheadCells(prev, newRect) - wiring.PairOverheadCells(prev, old)
	}
	if pos < m-1 {
		next := o.rects[k+1]
		d += wiring.PairOverheadCells(newRect, next) - wiring.PairOverheadCells(old, next)
	}
	return d
}

// ApplyMove relocates module k to anchor, updating the occupancy
// index, the module's table score and its string's gap cells. The
// move must be feasible (checked); use Prepare/Apply when the check
// has already been paid.
func (o *Objective) ApplyMove(k int, anchor geom.Cell) error {
	m, ok := o.Prepare(k, anchor)
	if !ok {
		return fmt.Errorf("objective: infeasible move of module %d to %v", k, anchor)
	}
	o.Apply(m)
	return nil
}

// Placement materialises the bound state as a floorplan.Placement
// (SuitabilitySum is the module-index-order fold of the table scores,
// matching the greedy planner's accounting).
func (o *Objective) Placement() *floorplan.Placement {
	var sum float64
	for _, s := range o.scores {
		sum += s
	}
	return &floorplan.Placement{
		Topology:       o.p.Topology,
		Shape:          o.p.Shape,
		Rects:          o.Rects(),
		SuitabilitySum: sum,
	}
}
