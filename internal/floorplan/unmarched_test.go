package floorplan_test

import (
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
	"repro/internal/pvmodel"
	"repro/internal/scenario"
	"repro/internal/wiring"
)

// TestEvaluateRejectsUnsuitableCells: the field marches the horizon of
// suitable cells only, so evaluating a hand-built Residential
// placement whose module covers an obstacle cell is an error rather
// than a read of an unmarched +0 horizon. The same module moved onto
// fully suitable cells evaluates.
func TestEvaluateRejectsUnsuitableCells(t *testing.T) {
	sc, err := scenario.Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldFast(scenario.FastGrid())
	if err != nil {
		t.Fatal(err)
	}
	mask := sc.Suitable
	var blocked, clear *geom.Rect
	for y := 0; y+sc.Shape.H <= mask.H(); y++ {
		for x := 0; x+sc.Shape.W <= mask.W(); x++ {
			r := geom.RectAt(geom.Cell{X: x, Y: y}, sc.Shape.W, sc.Shape.H)
			switch {
			case blocked == nil && mask.AnySet(r) && !mask.AllSet(r):
				blocked = &r
			case clear == nil && mask.AllSet(r):
				clear = &r
			}
		}
	}
	if blocked == nil || clear == nil {
		t.Fatal("Residential has no partly covered or no fully suitable module position")
	}
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	place := func(r geom.Rect) *floorplan.Placement {
		return &floorplan.Placement{
			Topology: panel.Topology{SeriesPerString: 1, Strings: 1},
			Shape:    sc.Shape,
			Rects:    []geom.Rect{r},
		}
	}
	_, err = floorplan.Evaluate(ev, mod, place(*blocked), spec)
	if err == nil || !strings.Contains(err.Error(), "outside the suitable mask") {
		t.Fatalf("module at %v over an obstacle: got error %v, want an unsuitable-cell error", *blocked, err)
	}
	e, err := floorplan.Evaluate(ev, mod, place(*clear), spec)
	if err != nil {
		t.Fatalf("module at %v on suitable cells: %v", *clear, err)
	}
	if e.GrossMWh <= 0 {
		t.Errorf("module at %v on suitable cells produced %g MWh", *clear, e.GrossMWh)
	}
}
