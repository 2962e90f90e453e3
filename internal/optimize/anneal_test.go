package optimize

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/panel"
	"repro/internal/wiring"
)

// annealFixture plans the greedy placement the annealer tests refine
// and builds the standard objective over it.
func annealFixture(t *testing.T) (Problem, *floorplan.Placement, *objective.Objective) {
	t.Helper()
	p := problemFixture(48, 24)
	pl, obj, err := p.greedySeed()
	if err != nil {
		t.Fatal(err)
	}
	return p, pl, obj
}

func TestRefineValidation(t *testing.T) {
	_, pl, obj := annealFixture(t)
	if _, err := Refine(nil, pl, 0, 0); err == nil {
		t.Error("nil objective must error")
	}
	if _, err := Refine(obj, nil, 0, 0); err == nil {
		t.Error("nil placement must error")
	}
	empty := *pl
	empty.Rects = nil
	if _, err := Refine(obj, &empty, 0, 0); err == nil {
		t.Error("empty placement must error")
	}
	if _, err := Refine(obj, pl, 0, -1); err == nil {
		t.Error("negative iterations must error")
	}
}

func TestRefineNeverWorsensObjective(t *testing.T) {
	_, pl, obj := annealFixture(t)
	refined, err := Refine(obj, pl, 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	spec := wiring.AWG10(0.2)
	value := func(p *floorplan.Placement) float64 {
		extra, err := spec.PlacementOverheadMeters(p.Rects, p.Topology.SeriesPerString)
		if err != nil {
			t.Fatal(err)
		}
		return p.SuitabilitySum - 0.05*extra
	}
	if value(refined) < value(pl)-1e-9 {
		t.Errorf("refinement worsened objective: %.3f -> %.3f", value(pl), value(refined))
	}
}

func TestRefineKeepsFeasibility(t *testing.T) {
	p, pl, obj := annealFixture(t)
	refined, err := Refine(obj, pl, 7, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !refined.OverlapFree() {
		t.Error("refined placement overlaps")
	}
	if !refined.WithinMask(p.Mask) {
		t.Error("refined placement escapes mask")
	}
	if len(refined.Rects) != len(pl.Rects) {
		t.Error("refinement changed module count")
	}
}

func TestRefineDeterministicPerSeed(t *testing.T) {
	_, pl, obj := annealFixture(t)
	a, err := Refine(obj.Fork(), pl, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Refine(obj.Fork(), pl, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("same seed diverged at module %d", i)
		}
	}
}

func TestRefineDoesNotMutateInput(t *testing.T) {
	_, pl, obj := annealFixture(t)
	before := append([]geom.Rect(nil), pl.Rects...)
	if _, err := Refine(obj, pl, 3, 2000); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if pl.Rects[i] != before[i] {
			t.Fatal("Refine mutated the input placement")
		}
	}
}

func TestRefineEscapesDeliberatelyBadStart(t *testing.T) {
	// Start from a placement parked on the cold background; the
	// annealer must find its way to the hot islands.
	suit := hotspotSuit(48, 24)
	mask := fullMask(48, 24)
	shape := floorplan.ModuleShape{W: 8, H: 4}
	topo := panel.Topology{SeriesPerString: 2, Strings: 1}
	bad := &floorplan.Placement{
		Topology: topo,
		Shape:    shape,
		Rects:    []geom.Rect{shape.Rect(geom.Cell{X: 20, Y: 10}), shape.Rect(geom.Cell{X: 28, Y: 10})},
	}
	for _, r := range bad.Rects {
		var sum float64
		r.Cells(func(c geom.Cell) bool { sum += suit.At(c); return true })
		bad.SuitabilitySum += sum / 32
	}
	obj, err := objective.New(suit, mask, objective.Params{
		Shape: shape, Topology: topo, WiringWeight: objective.DefaultWiringWeight,
	})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(obj, bad, 11, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if refined.SuitabilitySum < bad.SuitabilitySum*1.5 {
		t.Errorf("annealer failed to escape: %.1f -> %.1f", bad.SuitabilitySum, refined.SuitabilitySum)
	}
}

func TestExplicitZeroWiringWeightDisablesPenalty(t *testing.T) {
	// Two hot islands far apart: with the penalty disabled the
	// annealer is free to split the string across both; the pure
	// suitability sum of the refined placement must therefore be at
	// least as good as the penalised run's.
	p := problemFixture(48, 24)
	p.WiringWeight = 0
	free, err := Annealed{Seed: 1}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	p.WiringWeight = 5
	taxed, err := Annealed{Seed: 1}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if free.SuitabilitySum < taxed.SuitabilitySum-1e-9 {
		t.Errorf("penalty-free refinement scored %f below the heavily taxed %f",
			free.SuitabilitySum, taxed.SuitabilitySum)
	}
}
