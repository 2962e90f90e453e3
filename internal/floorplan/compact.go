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
// of the aw×ah anchor grid, row-major; NaN marks an anchor whose
// footprint leaves the mask or covers a NaN cell.
//
// The block sweep revisits every anchor many times (once per
// factorisation whose lattice contains it), and re-summing the 32-cell
// footprint per visit used to dominate the whole Table I regeneration.
// The table accumulates each footprint in the same row-major order
// scoreCandidates uses, so every per-slot score — and therefore every
// block choice and shortfall candidate — is bit-identical to summing
// it on demand.
type slotTable struct {
	scores []float64
	aw, ah int
}

func newSlotTable(suit *Suitability, mask *geom.Mask, shape ModuleShape) slotTable {
	t := slotTable{aw: mask.W() - shape.W + 1, ah: mask.H() - shape.H + 1}
	if t.aw <= 0 || t.ah <= 0 {
		return t
	}
	t.scores = make([]float64, t.aw*t.ah)
	area := float64(shape.W * shape.H)
	for ay := 0; ay < t.ah; ay++ {
		for ax := 0; ax < t.aw; ax++ {
			t.scores[ay*t.aw+ax] = math.NaN()
			rect := shape.Rect(geom.Cell{X: ax, Y: ay})
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
				t.scores[ay*t.aw+ax] = sum / area
			}
		}
	}
	return t
}

// at returns the slot score of anchor, false when the anchor is off
// the grid or its slot is invalid.
func (t slotTable) at(anchor geom.Cell) (float64, bool) {
	if anchor.X < 0 || anchor.X >= t.aw || anchor.Y < 0 || anchor.Y >= t.ah {
		return 0, false
	}
	s := t.scores[anchor.Y*t.aw+anchor.X]
	if math.IsNaN(s) {
		return 0, false
	}
	return s, true
}

// bestBlock slides every rows×cols = N factorisation of the block
// over the grid and returns the module anchors (row-major) of the
// intact position with the highest total score, intact = true. When
// no intact block fits anywhere it returns the valid slots of the best
// holey position instead, and nil when no position has a valid slot.
func (t slotTable) bestBlock(mask *geom.Mask, opts Options) (slots []geom.Cell, intact bool) {
	n := opts.Topology.Modules()
	type blockPos struct {
		score float64
		slots []geom.Cell
	}
	var bestIntact, bestHoley *blockPos
	// One scratch buffer serves every candidate position; slots are
	// only copied out when a position becomes the incumbent best.
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
				// Holey candidate: only used if no intact block is
				// ever found, padded by fillShortfall with the nearest
				// valid slots around the block. Its score is summed in
				// row-major slot order; the slot order itself does not
				// matter, as fillShortfall re-sorts the final module
				// set row-major.
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
// allow. opts must have AllowRotation off, as PlanCompact sets it.
func fillShortfall(slots []geom.Cell, table slotTable, suit *Suitability, mask *geom.Mask, opts Options) (*Placement, error) {
	n := opts.Topology.Modules()
	avail := mask.Clone()
	for _, s := range slots {
		avail.SetRect(opts.Shape.Rect(s), false)
	}
	filled := append([]geom.Cell{}, slots...)
	for _, cd := range table.nearest(slots, avail, suit, opts) {
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

// nearSlot is a shortfall candidate: a free anchor with its score and
// its footprint center's distance to the block centroid.
type nearSlot struct {
	anchor      geom.Cell
	dist, score float64
}

// nearest lists the table's valid slots that avail leaves free —
// with opts.AnchorScore scored and filtered by the anchor cell alone,
// as scoreCandidates does — ordered by distance to the centroid of
// slots, then descending score, then (y, x). That key is unique per
// anchor, so the unstable sort is deterministic.
func (t slotTable) nearest(slots []geom.Cell, avail *geom.Mask, suit *Suitability, opts Options) []nearSlot {
	var cx, cy float64
	for _, s := range slots {
		x, y := opts.Shape.Rect(s).Center()
		cx += x
		cy += y
	}
	cx /= float64(len(slots))
	cy /= float64(len(slots))

	var cands []nearSlot
	for ay := 0; ay < t.ah; ay++ {
		for ax := 0; ax < t.aw; ax++ {
			anchor := geom.Cell{X: ax, Y: ay}
			rect := opts.Shape.Rect(anchor)
			if !avail.AllSet(rect) {
				continue
			}
			score := t.scores[ay*t.aw+ax]
			if opts.AnchorScore {
				score = suit.At(anchor)
			}
			if math.IsNaN(score) {
				continue
			}
			x, y := rect.Center()
			cands = append(cands, nearSlot{anchor, math.Hypot(x-cx, y-cy), score})
		}
	}
	slices.SortFunc(cands, func(a, b nearSlot) int {
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
	})
	return cands
}
