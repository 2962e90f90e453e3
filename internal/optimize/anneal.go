package optimize

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
)

// defaultIterations is the annealer's move budget when a caller
// passes 0.
const defaultIterations = 20000

// startTemp and endTemp bound the geometric cooling schedule in
// objective units.
const startTemp, endTemp float64 = 5, 0.01

// Annealed runs the greedy placer and refines its placement by
// simulated annealing against the shared objective.
type Annealed struct {
	// Seed fixes the random walk.
	Seed int64
	// Iterations is the move budget (0 = 20000).
	Iterations int
}

// Name implements Placer.
func (Annealed) Name() string { return "anneal" }

// Place implements Placer.
func (a Annealed) Place(p Problem) (*floorplan.Placement, error) {
	seed, obj, err := p.greedySeed()
	if err != nil {
		return nil, err
	}
	return Refine(obj, seed, a.Seed, a.Iterations)
}

// Refine is the simulated-annealing refinement — the natural "future
// work" extension of the paper's greedy heuristic. Starting from pl,
// single-module relocation moves are accepted by the Metropolis rule
// against obj, and the best placement seen is returned (never worse
// than pl under obj). The walk is fixed by seed; iterations is the
// number of proposed moves (0 = 20000).
//
// Every proposed move is priced by the objective's O(1) delta
// evaluation — a score-table lookup plus at most two wiring gaps —
// so iteration counts in the hundreds of thousands stay cheap. obj's
// shape and topology must match pl's; callers running many walks
// share one score table by passing obj.Fork() to each.
func Refine(obj *objective.Objective, pl *floorplan.Placement, seed int64, iterations int) (*floorplan.Placement, error) {
	if obj == nil || pl == nil {
		return nil, fmt.Errorf("optimize: nil objective or placement")
	}
	if len(pl.Rects) == 0 {
		return nil, fmt.Errorf("optimize: empty placement")
	}
	if iterations < 0 {
		return nil, fmt.Errorf("optimize: negative iteration count %d", iterations)
	}
	if iterations == 0 {
		iterations = defaultIterations
	}
	if err := obj.Bind(pl.Rects); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	aw, ah := obj.AnchorDims()
	n := len(pl.Rects)

	cur := obj.Value()
	best := cur
	bestRects := obj.Rects()

	cooling := math.Pow(endTemp/startTemp, 1/float64(iterations))
	temp := startTemp

	// One 64-bit draw proposes (module, anchor) via three 21-bit
	// multiply-shift range reductions — a third of the RNG cost of
	// three Intn calls, at a bias below range/2^21 (irrelevant for
	// move proposals). Falls back to Intn on grids too large for the
	// chunks (>2M anchors per axis).
	fastDraw := n < 1<<21 && aw < 1<<21 && ah < 1<<21

	for it := 0; it < iterations; it++ {
		var k int
		var anchor geom.Cell
		if fastDraw {
			u := rng.Uint64()
			k = int((u >> 43) * uint64(n) >> 21)
			anchor.X = int(((u >> 22) & 0x1FFFFF) * uint64(aw) >> 21)
			anchor.Y = int(((u >> 1) & 0x1FFFFF) * uint64(ah) >> 21)
		} else {
			k = rng.Intn(n)
			anchor = geom.Cell{X: rng.Intn(aw), Y: rng.Intn(ah)}
		}
		if m, ok := obj.Prepare(k, anchor); ok {
			accept := m.Delta >= 0
			// Moves worse than ~30 temperatures are accepted with
			// probability < 1e-13: skip the exp and the RNG draw.
			// (The walk stays deterministic — the branch depends only
			// on walk state.)
			if !accept && m.Delta > -30*temp {
				accept = rng.Float64() < math.Exp(m.Delta/temp)
			}
			if accept {
				obj.Apply(m)
				cur += m.Delta
				if cur > best {
					best = cur
					bestRects = obj.Rects()
				}
			}
		}
		temp *= cooling
	}

	// Materialise the best rects, scoring each module off the
	// objective's table and carrying the input's warnings forward.
	out := &floorplan.Placement{
		Topology: pl.Topology,
		Shape:    pl.Shape,
		Rects:    bestRects,
		Warnings: append([]string(nil), pl.Warnings...),
	}
	for _, r := range bestRects {
		out.SuitabilitySum += obj.ScoreAt(r.Anchor())
	}
	return out, nil
}
