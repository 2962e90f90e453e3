package optimize

import (
	"errors"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
)

// bnbProblem places n modules of the given shape in one string.
func bnbProblem(suit *floorplan.Suitability, mask *geom.Mask, shape floorplan.ModuleShape, n int) Problem {
	return Problem{Suit: suit, Mask: mask, Opts: floorplan.Options{
		Shape: shape, Topology: panel.Topology{SeriesPerString: n, Strings: 1},
	}}
}

func TestBranchBoundValidation(t *testing.T) {
	suit := gradientSuit(20, 10)
	mask := fullMask(20, 10)
	shape := floorplan.ModuleShape{W: 4, H: 2}
	if _, err := (BranchBound{}).Place(bnbProblem(nil, mask, shape, 1)); err == nil {
		t.Error("nil suitability must error")
	}
	if _, err := (BranchBound{}).Place(bnbProblem(suit, mask, floorplan.ModuleShape{}, 1)); err == nil {
		t.Error("invalid shape must error")
	}
	if _, err := (BranchBound{}).Place(bnbProblem(suit, mask, shape, 0)); err == nil {
		t.Error("zero modules must error")
	}
	_, err := BranchBound{MaxNodes: -1}.Place(bnbProblem(suit, mask, shape, 1))
	if err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("negative budget: err = %v, want a validation error", err)
	}
}

func TestBranchBoundSingleModule(t *testing.T) {
	// One module on a gradient: the optimum is the best single
	// candidate — the footprint in the corner of largest x and y.
	pl, err := BranchBound{}.Place(bnbProblem(gradientSuit(20, 10), fullMask(20, 10), floorplan.ModuleShape{W: 4, H: 2}, 1))
	if err != nil {
		t.Fatal(err)
	}
	anchors := pl.Anchors()
	if len(anchors) != 1 || anchors[0] != (geom.Cell{X: 16, Y: 8}) {
		t.Errorf("optimal anchors = %v, want [(16,8)]", anchors)
	}
}

func TestBranchBoundMatchesBruteForceTiny(t *testing.T) {
	// 2 modules of 3x2 on an 8x4 grid: small enough to brute-force
	// over all candidate pairs.
	w, h := 8, 4
	suit := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	vals := []float64{
		5, 1, 9, 2, 8, 3, 7, 4,
		2, 6, 1, 8, 2, 9, 1, 5,
		7, 3, 8, 1, 6, 2, 9, 3,
		1, 9, 2, 7, 3, 8, 1, 6,
	}
	copy(suit.S, vals)
	pl, err := BranchBound{}.Place(bnbProblem(suit, fullMask(w, h), floorplan.ModuleShape{W: 3, H: 2}, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Brute force.
	type cand struct {
		c geom.Cell
		s float64
	}
	var cands []cand
	for y := 0; y+2 <= h; y++ {
		for x := 0; x+3 <= w; x++ {
			r := geom.RectAt(geom.Cell{X: x, Y: y}, 3, 2)
			sum := 0.0
			r.Cells(func(c geom.Cell) bool { sum += suit.At(c); return true })
			cands = append(cands, cand{geom.Cell{X: x, Y: y}, sum / 6})
		}
	}
	best := math.Inf(-1)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			ri := geom.RectAt(cands[i].c, 3, 2)
			rj := geom.RectAt(cands[j].c, 3, 2)
			if ri.Overlaps(rj) {
				continue
			}
			if s := cands[i].s + cands[j].s; s > best {
				best = s
			}
		}
	}
	if math.Abs(pl.SuitabilitySum-best) > 1e-9 {
		t.Errorf("B&B score %.4f != brute force %.4f", pl.SuitabilitySum, best)
	}
}

func TestBranchBoundNeverBelowGreedy(t *testing.T) {
	// On any instance the exact optimum must be >= the greedy's
	// suitability sum (same objective, same candidates). This is the
	// optimality-gap measurement of ablation A3.
	suit := gradientSuit(30, 16)
	// Punch holes so greedy has to work around obstacles.
	mask := fullMask(30, 16)
	mask.SetRect(geom.Rect{X0: 22, Y0: 0, X1: 26, Y1: 10}, false)
	mask.SetRect(geom.Rect{X0: 10, Y0: 6, X1: 16, Y1: 9}, false)
	p := bnbProblem(suit, mask, floorplan.ModuleShape{W: 4, H: 2}, 3)

	greedy, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, nodes, err := BranchBound{}.search(p)
	if err != nil {
		t.Fatal(err)
	}
	if exact.SuitabilitySum < greedy.SuitabilitySum-1e-9 {
		t.Errorf("exact %.4f below greedy %.4f — B&B is broken", exact.SuitabilitySum, greedy.SuitabilitySum)
	}
	gap := (exact.SuitabilitySum - greedy.SuitabilitySum) / exact.SuitabilitySum
	t.Logf("greedy optimality gap: %.2f%% (nodes=%d)", gap*100, nodes)
	if gap > 0.25 {
		t.Errorf("greedy gap %.1f%% implausibly large", gap*100)
	}
}

func TestBranchBoundBeatsOrMatchesGreedyOnSmallInstance(t *testing.T) {
	p := problemFixture(64, 32)
	p.Opts.Topology = panel.Topology{SeriesPerString: 2, Strings: 1}
	greedy, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BranchBound{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if exact.SuitabilitySum < greedy.SuitabilitySum-1e-9 {
		t.Errorf("exact suitability %f below greedy %f", exact.SuitabilitySum, greedy.SuitabilitySum)
	}
	if len(exact.Rects) != 2 || !exact.OverlapFree() || !exact.WithinMask(p.Mask) {
		t.Error("exact placement infeasible")
	}
}

func TestBranchBoundNoSpace(t *testing.T) {
	_, err := BranchBound{}.Place(bnbProblem(gradientSuit(6, 3), fullMask(6, 3), floorplan.ModuleShape{W: 4, H: 2}, 5))
	if err == nil {
		t.Error("expected no-space error")
	}
}

func TestBranchBoundBudgetExhaustion(t *testing.T) {
	p := bnbProblem(gradientSuit(40, 20), fullMask(40, 20), floorplan.ModuleShape{W: 4, H: 2}, 6)
	if _, err := (BranchBound{MaxNodes: 10}).Place(p); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestBranchBoundExactBudgetSucceeds(t *testing.T) {
	// A search that proves optimality in exactly MaxNodes nodes must
	// succeed with the unbounded answer; one node fewer must exhaust.
	for n, wantNodes := range map[int]int{1: 1, 2: 2, 3: 4} {
		p := bnbProblem(gradientSuit(16, 6), fullMask(16, 6), floorplan.ModuleShape{W: 4, H: 2}, n)
		free, nodes, err := BranchBound{}.search(p)
		if err != nil {
			t.Fatalf("N=%d unbounded: %v", n, err)
		}
		if nodes != wantNodes {
			t.Errorf("N=%d explored %d nodes, want %d", n, nodes, wantNodes)
		}
		tight, err := BranchBound{MaxNodes: nodes}.Place(p)
		if err != nil {
			t.Fatalf("N=%d with MaxNodes=%d: %v", n, nodes, err)
		}
		for i := range free.Rects {
			if tight.Rects[i] != free.Rects[i] {
				t.Errorf("N=%d module %d at %v under the exact budget, %v unbounded",
					n, i, tight.Rects[i], free.Rects[i])
			}
		}
		if nodes > 1 {
			if _, err := (BranchBound{MaxNodes: nodes - 1}).Place(p); !errors.Is(err, ErrBudgetExhausted) {
				t.Errorf("N=%d with MaxNodes=%d: err = %v, want ErrBudgetExhausted", n, nodes-1, err)
			}
		}
	}
}

func TestBranchBoundAvoidsMaskedCells(t *testing.T) {
	mask := fullMask(16, 6)
	mask.SetRect(geom.Rect{X0: 12, Y0: 0, X1: 16, Y1: 6}, false) // best region blocked
	pl, err := BranchBound{}.Place(bnbProblem(gradientSuit(16, 6), mask, floorplan.ModuleShape{W: 4, H: 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.WithinMask(mask) {
		t.Errorf("optimal placement %v violates mask", pl.Anchors())
	}
}
