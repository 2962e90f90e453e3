package floorplan_test

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/pvmodel"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/wiring"
)

// residentialSuitability builds the Residential roof's Fast field and
// its paper suitability.
func residentialSuitability(t *testing.T) (*scenario.Scenario, *field.Evaluator, *floorplan.Suitability) {
	t.Helper()
	sc, err := scenario.Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldFast(scenario.FastGrid())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sc, ev, suit
}

// planResidential places 8 modules of the given footprint greedily.
func planResidential(t *testing.T, sc *scenario.Scenario, suit *floorplan.Suitability, shape floorplan.ModuleShape) *floorplan.Placement {
	t.Helper()
	topo, err := scenario.Topology(8)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := floorplan.Plan(suit, sc.Suitable, floorplan.Options{Shape: shape, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestAlternativeModuleTechnology swaps in the 320 W module preset
// (8x5 cells) and checks that placement and evaluation adapt.
func TestAlternativeModuleTechnology(t *testing.T) {
	sc, ev, suit := residentialSuitability(t)
	mod := pvmodel.Generic320()
	w, h := mod.Geometry()
	shape, err := floorplan.ShapeOnGrid(w, h, scenario.CellSizeM)
	if err != nil {
		t.Fatal(err)
	}
	pl := planResidential(t, sc, suit, shape)
	for _, r := range pl.Rects {
		if r.W() != 8 || r.H() != 5 {
			t.Fatalf("module footprint %dx%d, want 8x5", r.W(), r.H())
		}
	}
	spec := wiring.AWG10(scenario.CellSizeM)
	e, err := floorplan.Evaluate(ev, mod, pl, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The 320 W module on the same roof must out-produce the 165 W
	// baseline with the same module count.
	base, err := floorplan.Evaluate(ev, pvmodel.PVMF165EB3(), planResidential(t, sc, suit, sc.Shape), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !(e.GrossMWh > 1.5*base.GrossMWh) {
		t.Errorf("320 W module gross %.3f should be ≈2x the 165 W %.3f", e.GrossMWh, base.GrossMWh)
	}
}

// TestWiringSpecOverride evaluates one sparse placement with a lossier
// cable and checks the evaluation reacts.
func TestWiringSpecOverride(t *testing.T) {
	sc, ev, suit := residentialSuitability(t)
	pl := planResidential(t, sc, suit, sc.Shape)
	mod := pvmodel.PVMF165EB3()
	normal, err := floorplan.Evaluate(ev, mod, pl, wiring.AWG10(scenario.CellSizeM))
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := floorplan.Evaluate(ev, mod, pl,
		wiring.Spec{OhmPerM: 0.7, CostPerM: 1, CellSizeM: scenario.CellSizeM}) // 100x AWG10
	if err != nil {
		t.Fatal(err)
	}
	if normal.WiringExtraM > 0 &&
		lossy.WiringLossMWh <= normal.WiringLossMWh {
		t.Error("100x cable resistance should raise the wiring loss")
	}
}
