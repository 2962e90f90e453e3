package floorplan

import (
	"math/rand"

	"repro/internal/geom"
)

// PlanRandom places N modules uniformly at random over the valid
// candidate positions — the weak reference baseline that brackets the
// compact/traditional one from below. An installer who ignores the
// irradiance data entirely but respects the obstacles would land
// here; the gap between random and compact measures how much of the
// gain comes merely from "use the sunny part of the roof", while the
// gap between compact and the greedy measures the paper's actual
// contribution.
//
// The placement is deterministic for a given seed. Returns ErrNoSpace
// when the sampled sequence cannot host all N modules (random
// placement can paint itself into a corner that backtracking would
// escape; callers retry with another seed).
func PlanRandom(suit *Suitability, mask *geom.Mask, opts Options, seed int64) (*Placement, error) {
	if err := prepare(suit, mask, &opts); err != nil {
		return nil, err
	}
	return placeRandom(scoreCandidates(suit, mask, opts), mask, opts, seed)
}

// placeRandom is PlanRandom's placement loop over the ranked
// candidates.
func placeRandom(cands *candidates, mask *geom.Mask, opts Options, seed int64) (*Placement, error) {
	n := opts.Topology.Modules()
	ranked := cands.rank.all()
	if len(ranked) == 0 {
		return nil, &ErrNoSpace{Placed: 0, Wanted: n}
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(ranked))

	occ := newOccupancy(mask.W(), mask.H(), cands.shapes)
	pl := &Placement{Topology: opts.Topology, Shape: opts.Shape}
	for _, idx := range order {
		if len(pl.Rects) == n {
			break
		}
		code := ranked[idx]
		if !occ.free(code) {
			continue
		}
		rect := cands.footprint(code)
		occ.place(rect)
		pl.Rects = append(pl.Rects, rect)
		pl.SuitabilitySum += cands.score[code]
	}
	if len(pl.Rects) < n {
		return nil, &ErrNoSpace{Placed: len(pl.Rects), Wanted: n}
	}
	return pl, nil
}
