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
	// The baseline packs identically-oriented modules, as real
	// installations do; rotation is a greedy-only extension.
	opts.AllowRotation = false
	n := opts.Topology.Modules()

	// Precompute the per-anchor slot score once: the block sweep below
	// revisits every anchor many times (once per factorisation whose
	// lattice contains it), and re-summing the 32-cell footprint per
	// visit used to dominate the whole Table I regeneration. The table
	// accumulates each footprint in the same row-major order the
	// previous per-visit scan used, so every per-slot score — and
	// therefore every intact-block choice — is bit-identical to the
	// lazy evaluation. (Holey-fallback candidates now sum their slots
	// in row-major order rather than the former score-descending
	// order; see the holey branch below.)
	aw := mask.W() - opts.Shape.W + 1
	ah := mask.H() - opts.Shape.H + 1
	var scores []float64
	if aw > 0 && ah > 0 {
		scores = make([]float64, aw*ah)
		area := float64(opts.Shape.W * opts.Shape.H)
		for ay := 0; ay < ah; ay++ {
			for ax := 0; ax < aw; ax++ {
				scores[ay*aw+ax] = math.NaN()
				rect := opts.Shape.Rect(geom.Cell{X: ax, Y: ay})
				if !mask.AllSet(rect) {
					continue
				}
				var sum float64
				valid := true
				rect.Cells(func(c geom.Cell) bool {
					v := suit.At(c)
					if math.IsNaN(v) {
						valid = false
						return false
					}
					sum += v
					return true
				})
				if valid {
					scores[ay*aw+ax] = sum / area
				}
			}
		}
	}
	scoreAt := func(anchor geom.Cell) (float64, bool) {
		if anchor.X < 0 || anchor.X >= aw || anchor.Y < 0 || anchor.Y >= ah {
			return 0, false
		}
		s := scores[anchor.Y*aw+anchor.X]
		if math.IsNaN(s) {
			return 0, false
		}
		return s, true
	}

	type blockPos struct {
		rows, cols int
		origin     geom.Cell
		score      float64
		slots      []geom.Cell // chosen module anchors, row-major
	}
	type scoredSlot struct {
		c geom.Cell
		s float64
	}

	var bestIntact, bestHoley *blockPos
	// One scratch buffer serves every candidate position; slots are
	// only copied out when a position becomes the incumbent best.
	all := make([]scoredSlot, 0, n)
	copySlots := func() []geom.Cell {
		slots := make([]geom.Cell, len(all))
		for i, sl := range all {
			slots[i] = sl.c
		}
		return slots
	}
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
						s, ok := scoreAt(anchor)
						if !ok {
							holes++
							continue
						}
						all = append(all, scoredSlot{anchor, s})
						sum += s
					}
				}
				if holes == 0 {
					if bestIntact == nil || sum > bestIntact.score {
						bestIntact = &blockPos{rows, cols, geom.Cell{X: x0, Y: y0}, sum, copySlots()}
					}
					continue
				}
				// Holey candidate: only useful if no intact block is
				// ever found. Requires at least N valid slots in a
				// slightly enlarged block — here the same block, so
				// holes disqualify unless we widen; instead allow
				// blocks with extra rows below (handled by the outer
				// sweep finding larger factorisations is not possible
				// since rows*cols == n). Keep the best "almost" block
				// for the fallback by padding with the nearest valid
				// slots around the block. Slot order within the block
				// is irrelevant to the outcome (fillShortfall re-sorts
				// the final module set row-major); the candidate score
				// itself is summed in row-major slot order — a fixed,
				// documented order, though not the score-descending
				// order the pre-table implementation happened to use,
				// so near-tied holey candidates may rank differently
				// than they did before this optimisation.
				if len(all) == 0 {
					continue
				}
				if bestHoley == nil || sum > bestHoley.score {
					bestHoley = &blockPos{rows, cols, geom.Cell{X: x0, Y: y0}, sum, copySlots()}
				}
			}
		}
	}

	switch {
	case bestIntact != nil:
		return placementFromSlots(bestIntact.slots, suit, opts, nil)
	case bestHoley != nil:
		// Fill the shortfall greedily from the remaining candidates
		// nearest to the block.
		pl, err := fillShortfall(bestHoley.slots, suit, mask, opts)
		if err != nil {
			return nil, err
		}
		pl.Warnings = append(pl.Warnings,
			"compact baseline: no intact block fits; obstacle slots skipped and refilled nearby")
		return pl, nil
	default:
		return nil, &ErrNoSpace{Placed: 0, Wanted: n}
	}
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
func fillShortfall(slots []geom.Cell, suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	n := opts.Topology.Modules()
	avail := mask.Clone()
	for _, s := range slots {
		avail.SetRect(opts.Shape.Rect(s), false)
	}
	var cx, cy float64
	for _, s := range slots {
		x, y := opts.Shape.Rect(s).Center()
		cx += x
		cy += y
	}
	cx /= float64(len(slots))
	cy /= float64(len(slots))

	cands := scoreCandidates(suit, avail, opts)
	// Prefer proximity to the block, then score.
	slices.SortStableFunc(cands, func(a, b candidate) int {
		xa, ya := opts.Shape.Rect(a.anchor).Center()
		xb, yb := opts.Shape.Rect(b.anchor).Center()
		return cmp.Or(cmp.Compare(math.Hypot(xa-cx, ya-cy), math.Hypot(xb-cx, yb-cy)),
			cmp.Compare(b.score, a.score))
	})
	filled := append([]geom.Cell{}, slots...)
	for _, cd := range cands {
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
	// Re-sort row-major so series strings stay spatially coherent.
	slices.SortFunc(filled, func(a, b geom.Cell) int {
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
	})
	return placementFromSlots(filled, suit, opts, nil)
}
