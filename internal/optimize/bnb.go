package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/geom"
)

// ErrBudgetExhausted is returned when the branch-and-bound search
// would expand more nodes than its budget allows before proving
// optimality.
var ErrBudgetExhausted = errors.New("optimize: node budget exhausted before optimality proof")

// defaultMaxNodes is the branch-and-bound node budget when
// BranchBound.MaxNodes is 0.
const defaultMaxNodes = 5_000_000

// BranchBound is the exact reference placer: depth-first branch and
// bound over the shared score table with a sorted-prefix upper bound,
// maximising the pure suitability sum (wiring-blind, like the greedy
// objective it bounds — ablation A3). The paper notes that exhaustive
// enumeration is infeasible at roof scale (O(N^Ng) — §III-C and §V-B
// "it is not possible to compare our results against an exhaustive
// algorithm"); this placer makes the comparison possible on reduced
// instances. Place fails with ErrBudgetExhausted rather than
// returning an unproven answer.
type BranchBound struct {
	// MaxNodes caps the explored search nodes (0 = 5e6; negative is
	// rejected).
	MaxNodes int
}

// Name implements Placer.
func (BranchBound) Name() string { return "bnb" }

// Place implements Placer.
func (b BranchBound) Place(p Problem) (*floorplan.Placement, floorplan.Evaluation, error) {
	pl, _, err := b.search(p)
	return p.judge(pl, err)
}

type candidate struct {
	rect  geom.Rect
	score float64
}

// search runs the branch and bound, returning the optimal placement
// and the number of explored nodes.
func (b BranchBound) search(p Problem) (*floorplan.Placement, int, error) {
	n := p.Opts.Topology.Modules()
	if n <= 0 {
		return nil, 0, fmt.Errorf("optimize: non-positive module count %d", n)
	}
	if b.MaxNodes < 0 {
		return nil, 0, fmt.Errorf("optimize: negative node budget %d", b.MaxNodes)
	}
	maxNodes := b.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	obj, err := p.newObjective()
	if err != nil {
		return nil, 0, err
	}
	var cands []candidate
	obj.ForEachAnchor(func(anchor geom.Cell, score float64) {
		cands = append(cands, candidate{rect: p.Opts.Shape.Rect(anchor), score: score})
	})
	if len(cands) < n {
		return nil, 0, &floorplan.ErrNoSpace{Placed: len(cands), Wanted: n}
	}
	// Sorted descending: prefix sums bound any completion.
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	s := &bnbSearch{
		cands:    cands,
		prefix:   make([]float64, len(cands)+1),
		maxNodes: maxNodes,
		occupied: geom.NewMask(p.Mask.W(), p.Mask.H()),
		chosen:   make([]int, 0, n),
		best:     math.Inf(-1),
	}
	for i, c := range cands {
		s.prefix[i+1] = s.prefix[i] + c.score
	}
	s.dfs(0, n)
	if s.exhausted {
		return nil, s.nodes, ErrBudgetExhausted
	}
	if math.IsInf(s.best, -1) {
		return nil, s.nodes, &floorplan.ErrNoSpace{Placed: 0, Wanted: n}
	}
	// Row-major anchor order serialises the order-free optimum into
	// series strings with consecutive modules spatially adjacent — as
	// wiring-coherent as an exact search that ignores wiring gets.
	sort.Slice(s.bestSet, func(i, j int) bool {
		u, v := cands[s.bestSet[i]].rect.Anchor(), cands[s.bestSet[j]].rect.Anchor()
		if u.Y != v.Y {
			return u.Y < v.Y
		}
		return u.X < v.X
	})
	pl := &floorplan.Placement{
		Topology:       p.Opts.Topology,
		Shape:          p.Opts.Shape,
		SuitabilitySum: s.best,
	}
	for _, idx := range s.bestSet {
		pl.Rects = append(pl.Rects, cands[idx].rect)
	}
	return pl, s.nodes, nil
}

type bnbSearch struct {
	cands     []candidate
	prefix    []float64 // prefix[i] = sum of the i best candidate scores
	maxNodes  int
	nodes     int
	exhausted bool
	occupied  *geom.Mask
	chosen    []int
	current   float64
	best      float64
	bestSet   []int
}

// bound is the best completion score from start: the sum of the next
// need candidate scores, or -Inf when too few candidates remain.
func (s *bnbSearch) bound(start, need int) float64 {
	if start+need > len(s.cands) {
		return math.Inf(-1)
	}
	return s.prefix[start+need] - s.prefix[start]
}

// dfs explores combinations in candidate-index order (enforcing
// increasing indices avoids permutation duplicates). Exhaustion is
// flagged only when a node would be expanded past the budget, so a
// search that proves optimality in exactly maxNodes nodes succeeds.
func (s *bnbSearch) dfs(start, need int) {
	if need == 0 {
		if s.current > s.best {
			s.best = s.current
			s.bestSet = append(s.bestSet[:0], s.chosen...)
		}
		return
	}
	for i := start; i < len(s.cands) && !s.exhausted; i++ {
		if s.current+s.bound(i, need) <= s.best {
			return // even the best completion cannot improve
		}
		c := &s.cands[i]
		if s.occupied.AnySet(c.rect) {
			continue
		}
		if s.nodes == s.maxNodes {
			s.exhausted = true
			return
		}
		s.nodes++
		s.occupied.SetRect(c.rect, true)
		s.chosen = append(s.chosen, i)
		s.current += c.score
		s.dfs(i+1, need-1)
		s.current -= c.score
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.occupied.SetRect(c.rect, false)
	}
}
