package floorplan

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// PlanCompact builds the paper's "traditional" reference placement
// (§V-B): the N modules packed tightly into a rectangular block,
// positioned on the most irradiated region of the roof. Like the
// paper's baseline it uses the same spatio-temporal suitability data
// as the greedy planner — a deliberately strong reference ("we are
// comparing our solution to a particularly good reference").
//
// Every factorisation rows×cols = N of the block is slid over the
// grid; the intact position with the highest total suitability wins.
// Modules are enumerated row-major, which is series-first: with
// cols = m each row is one series string, matching the paper's
// Fig. 7(a-c) colour bands.
//
// Roofs crowded with obstacles may admit no intact block anywhere; in
// that case the block is allowed to skip obstacle-covered slots
// (installers do the same), choosing the position where the N best
// valid slots score highest, and a warning is recorded.
func PlanCompact(suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	table := newSlotTable(suit, mask, opts.Shape)
	slots, intact := table.bestBlock(mask, opts)
	switch {
	case slots == nil:
		return nil, &ErrNoSpace{Placed: 0, Wanted: opts.Topology.Modules()}
	case intact:
		return placementFromSlots(slots, suit, opts, nil)
	default:
		// Fill the shortfall greedily from the remaining candidates
		// nearest to the block.
		pl, err := fillShortfall(slots, table, suit, mask, opts)
		if err != nil {
			return nil, err
		}
		pl.Warnings = append(pl.Warnings,
			"compact baseline: no intact block fits; obstacle slots skipped and refilled nearby")
		return pl, nil
	}
}

// slotTable is the footprint-mean suitability of every module anchor
// of the aw×ah anchor grid, at index y·W + x of a W×H table; NaN marks
// an anchor whose footprint leaves the mask or covers a NaN cell
// (FootprintMeans). The block sweep reads it through a prefix table
// and re-sums only the few positions that table cannot tell apart
// from the best; the shortfall fill ranks its free slots from it.
type slotTable struct {
	scores    []float64
	w, aw, ah int
}

func newSlotTable(suit *Suitability, mask *geom.Mask, shape ModuleShape) slotTable {
	return slotTable{scores: FootprintMeans(suit, mask, shape),
		w: mask.W(), aw: mask.W() - shape.W + 1, ah: mask.H() - shape.H + 1}
}

// at returns the slot score of anchor, false when the anchor is off
// the grid or its slot is invalid.
func (t slotTable) at(anchor geom.Cell) (float64, bool) {
	if anchor.X < 0 || anchor.X >= t.aw || anchor.Y < 0 || anchor.Y >= t.ah {
		return 0, false
	}
	s := t.scores[anchor.Y*t.w+anchor.X]
	if math.IsNaN(s) {
		return 0, false
	}
	return s, true
}

// blockSums is a prefix table over the anchor grid with stride
// (W, H), the spacing of every block lattice: one inclusion-exclusion
// gives any block position its exact hole count and an approximate
// slot-score sum. The tables are padded by W columns and H rows of
// zeros, so a block at the grid's top or left edge needs no branch.
type blockSums struct {
	w, h  int // stride
	pw    int // padded width
	sum   []float64
	holes []int32
}

func newBlockSums(t slotTable, shape ModuleShape) blockSums {
	b := blockSums{w: shape.W, h: shape.H, pw: t.aw + shape.W}
	n := b.pw * (t.ah + shape.H)
	b.sum, b.holes = make([]float64, n), make([]int32, n)
	// Row prefixes along x, stride W, then column prefixes along y,
	// stride H: the order the error bound in bestBlock assumes.
	for ay := 0; ay < t.ah; ay++ {
		for ax := 0; ax < t.aw; ax++ {
			i := (ay+b.h)*b.pw + ax + b.w
			if s := t.scores[ay*t.w+ax]; math.IsNaN(s) {
				b.holes[i] = b.holes[i-b.w] + 1
				b.sum[i] = b.sum[i-b.w]
			} else {
				b.holes[i] = b.holes[i-b.w]
				b.sum[i] = s + b.sum[i-b.w]
			}
		}
	}
	up := b.h * b.pw
	for ay := 0; ay < t.ah; ay++ {
		for ax := 0; ax < t.aw; ax++ {
			i := (ay+b.h)*b.pw + ax + b.w
			b.holes[i] += b.holes[i-up]
			b.sum[i] += b.sum[i-up]
		}
	}
	return b
}

// block returns the hole count and the approximate score sum of the
// rows×cols block of slots anchored at (x0, y0).
func (b blockSums) block(x0, y0, rows, cols int) (holes int32, approx float64) {
	// l is the padded index of the lattice point one stride above and
	// left of the block's first slot.
	l := y0*b.pw + x0
	r := l + cols*b.w
	d := rows * b.h * b.pw
	holes = (b.holes[r+d] - b.holes[l+d]) - (b.holes[r] - b.holes[l])
	approx = (b.sum[r+d] - b.sum[l+d]) - (b.sum[r] - b.sum[l])
	return holes, approx
}

// bestBlock slides every rows×cols = N factorisation of the block
// over the grid and returns the module anchors (row-major) of the
// intact position with the highest total score, intact = true. When
// no intact block fits anywhere it returns the valid slots of the best
// holey position instead, and nil when no position has a valid slot.
//
// A position's total is its slot scores summed in row-major slot
// order, and the first position, in factorisation then row-major
// order, whose total beats every earlier one wins. The sweep reads
// each position's hole count and an approximate total from blockSums
// in O(1), and re-sums exactly, in that same order and by that same
// rule, only the positions of the winning class whose approximate
// total lies within 2δ of the class's best one. It collects them in
// one pass against the best approximate total seen so far, which never
// exceeds the final one, so no position the final threshold keeps is
// dropped on the way.
//
// The bound. Let u = 2⁻⁵³, γₖ = ku/(1−ku), S the real sum of |s| over
// every valid slot and T a position's real total. A prefix entry is a
// recursive sum of at most kx = ⌈aw/W⌉ row terms followed by one of at
// most ky = ⌈ah/H⌉ column terms, so it lies within γ_{kx−1} +
// γ_{ky−1}(1+γ_{kx−1}) ≤ γ_K·S of its real value, K = kx+ky (Higham,
// Lemma 3.3). Each inner difference in block spans a real sum of
// magnitude at most S, so it lies within 2γ_K·S + u(S + 2γ_K·S), and
// the outer difference leaves |approx − T| ≤ 4γ_K·S + 4u·S. The
// row-major total adds at most N terms, within γ_{N−1}·S of T. With
// γₖ ≤ 1.01ku and S ≤ 1.01Â, Â the float sum of |s|, every position's
// approximate total lies within δ₁ = (5K + 2N + 8)·u·Â of its exact
// one. The sweep takes δ = 2δ₁, and the slack covers the rounding of
// δ and of best − 2δ, since u·(|best| + 2δ) ≤ 1.02u·Â + 4u·δ₁ < δ₁.
// If u·Â underflows, δ is off by at most 2⁻¹⁰⁷⁵, which the slack
// covers unless Â < 2⁻¹⁰²²; there every addition is exact, and so is
// every approximate total. Nothing here depends on the signs of the
// scores.
//
// Now let p be the winner and q the position with the highest
// approximate total. Then approx(p) ≥ exact(p) − δ₁ ≥ exact(q) − δ₁ ≥
// approx(q) − 2δ₁, so p is re-summed; no earlier position reaches p's
// exact total, so the original rule over the re-summed positions picks
// p. When 4Â overflows, δ is infinite, and a NaN best makes every
// comparison false: either way every position of the class is
// re-summed.
func (t slotTable) bestBlock(mask *geom.Mask, opts Options) (slots []geom.Cell, intact bool) {
	n := opts.Topology.Modules()
	type factor struct{ rows, cols int }
	var factors []factor
	for rows := 1; rows <= n; rows++ {
		cols := n / rows
		if n%rows == 0 && cols*opts.Shape.W <= mask.W() && rows*opts.Shape.H <= mask.H() {
			factors = append(factors, factor{rows, cols})
		}
	}
	if len(factors) == 0 {
		return nil, false
	}
	var sumAbs float64
	for _, s := range t.scores {
		if !math.IsNaN(s) {
			sumAbs += math.Abs(s)
		}
	}
	kx := (t.aw + opts.Shape.W - 1) / opts.Shape.W
	ky := (t.ah + opts.Shape.H - 1) / opts.Shape.H
	delta := 2 * float64(5*(kx+ky)+2*n+8) * 0x1p-53 * sumAbs
	if math.IsInf(4*sumAbs, 0) {
		delta = math.Inf(1)
	}

	// One pass collects, in sweep order, the positions within 2δ of the
	// best approximate total seen so far; the final best only raises
	// that threshold. Holey positions are collected only until the
	// first intact one turns up.
	type position struct {
		x0, y0 int
		f      factor
		approx float64
	}
	var kept []position
	best := math.Inf(-1)
	b := newBlockSums(t, opts.Shape)
	for _, f := range factors {
		for y0 := 0; y0 <= t.ah-1-(f.rows-1)*opts.Shape.H; y0++ {
			for x0 := 0; x0 <= t.aw-1-(f.cols-1)*opts.Shape.W; x0++ {
				holes, approx := b.block(x0, y0, f.rows, f.cols)
				switch {
				case holes == 0 && !intact:
					intact, best, kept = true, approx, kept[:0]
				case holes == 0 || !intact && int(holes) < n:
					best = max(best, approx)
				default:
					continue
				}
				if !(approx < best-2*delta) {
					kept = append(kept, position{x0, y0, f, approx})
				}
			}
		}
	}

	lo := best - 2*delta
	var bestScore float64
	all := make([]geom.Cell, 0, n)
	for _, p := range kept {
		if p.approx < lo {
			continue
		}
		var sum float64
		all = all[:0]
		for r := 0; r < p.f.rows; r++ {
			for c := 0; c < p.f.cols; c++ {
				anchor := geom.Cell{X: p.x0 + c*opts.Shape.W, Y: p.y0 + r*opts.Shape.H}
				if s, ok := t.at(anchor); ok {
					all = append(all, anchor)
					sum += s
				}
			}
		}
		if slots == nil || sum > bestScore {
			bestScore, slots = sum, slices.Clone(all)
		}
	}
	return slots, intact
}

// placementFromSlots materialises a placement from row-major slot
// anchors (already series-first).
func placementFromSlots(slots []geom.Cell, suit *Suitability, opts Options, warnings []string) (*Placement, error) {
	pl := &Placement{Topology: opts.Topology, Shape: opts.Shape, Warnings: warnings}
	for _, anchor := range slots {
		rect := opts.Shape.Rect(anchor)
		pl.Rects = append(pl.Rects, rect)
		var sum float64
		rect.Cells(func(c geom.Cell) bool {
			sum += suit.At(c)
			return true
		})
		pl.SuitabilitySum += sum / float64(opts.Shape.W*opts.Shape.H)
	}
	return pl, nil
}

// fillShortfall completes a partial compact block to N modules by
// claiming the best remaining candidates closest to the block
// centroid, keeping the arrangement as compact as the obstacles
// allow.
func fillShortfall(slots []geom.Cell, table slotTable, suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	n := opts.Topology.Modules()
	occ := newOccupancy(mask.W(), mask.H(), opts.Shape)
	for _, s := range slots {
		occ.place(opts.Shape.Rect(s))
	}
	filled := append(make([]geom.Cell, 0, n), slots...)
	near := table.nearest(slots, occ, opts)
	for i := 0; len(filled) < n && near.has(i); i++ {
		anchor := near.items[i].anchor
		if !occ.free(int32(anchor.Y*mask.W() + anchor.X)) {
			continue
		}
		occ.place(opts.Shape.Rect(anchor))
		filled = append(filled, anchor)
	}
	if len(filled) < n {
		return nil, &ErrNoSpace{Placed: len(filled), Wanted: n}
	}
	// Re-sort row-major so series strings stay spatially coherent.
	slices.SortFunc(filled, func(a, b geom.Cell) int {
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
	})
	return placementFromSlots(filled, suit, opts, nil)
}

// nearSlot is a shortfall candidate: a free anchor with its score and
// its footprint center's distance to the block centroid.
type nearSlot struct {
	anchor      geom.Cell
	dist, score float64
}

// nearOrder orders shortfall candidates by distance, then descending
// score, then (y, x). That key is unique per anchor, so the order is
// total.
func nearOrder(a, b nearSlot) int {
	if a.dist != b.dist {
		return cmp.Compare(a.dist, b.dist)
	}
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	if a.anchor.Y != b.anchor.Y {
		return cmp.Compare(a.anchor.Y, b.anchor.Y)
	}
	return cmp.Compare(a.anchor.X, b.anchor.X)
}

// nearest ranks the valid slots that occ leaves free in nearOrder
// from the centroid of slots. The ranking sorts on demand: the fill
// usually reads a few dozen of several thousand slots.
func (t slotTable) nearest(slots []geom.Cell, occ *occupancy, opts Options) *ranked[nearSlot] {
	var cx, cy float64
	for _, s := range slots {
		x, y := opts.Shape.Rect(s).Center()
		cx += x
		cy += y
	}
	cx /= float64(len(slots))
	cy /= float64(len(slots))

	count := 0
	for i, s := range t.scores {
		if !math.IsNaN(s) && occ.free(int32(i)) {
			count++
		}
	}
	cands := make([]nearSlot, 0, count)
	for i, s := range t.scores {
		if !math.IsNaN(s) && occ.free(int32(i)) {
			anchor := geom.Cell{X: i % t.w, Y: i / t.w}
			x, y := opts.Shape.Rect(anchor).Center()
			cands = append(cands, nearSlot{anchor, math.Hypot(x-cx, y-cy), s})
		}
	}
	return &ranked[nearSlot]{items: cands, chunk: 2 * opts.Topology.Modules(),
		key: func(c nearSlot) float64 { return c.dist }, order: nearOrder}
}
