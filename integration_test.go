package pvfloor

import (
	"math"
	"strings"
	"testing"

	"repro/internal/econ"
	"repro/internal/floorplan"
	"repro/internal/pvmodel"
)

// TestPipelineRoof1Integration exercises the whole stack on the
// paper's hardest roof at fast fidelity and cross-checks every
// artifact against the others.
func TestPipelineRoof1Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sc, err := Roof1()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Ng() != 9416 {
		t.Fatalf("Roof 1 Ng = %d, want the paper's 9416 exactly", sc.Ng())
	}
	res, err := Run(Config{Scenario: sc, Modules: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Placements feasible and disjoint from obstacles.
	for name, pl := range map[string]*floorplan.Placement{
		"proposed": res.Proposed, "traditional": res.Traditional,
	} {
		if !pl.OverlapFree() || !pl.WithinMask(sc.Suitable) {
			t.Errorf("%s placement infeasible", name)
		}
		if len(pl.Rects) != 32 {
			t.Errorf("%s has %d modules", name, len(pl.Rects))
		}
	}

	// The rendered map shows all four series strings.
	art := res.ProposedMap(120)
	for _, letter := range []string{"A", "B", "C", "D"} {
		if !strings.Contains(art, letter) {
			t.Errorf("proposed map missing string %s", letter)
		}
	}

	// Energy accounting consistency.
	e := res.ProposedEval
	if e.NetMWh() > e.GrossMWh || e.GrossMWh > e.PerModuleMWh+1e-9 {
		t.Errorf("energy ordering violated: net %.3f gross %.3f permod %.3f",
			e.NetMWh(), e.GrossMWh, e.PerModuleMWh)
	}
	// Monthly profile sums to the gross energy.
	monthly, err := floorplan.MonthlyEnergy(res.Evaluator, pvmodel.PVMF165EB3(), res.Proposed)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range monthly {
		sum += m
	}
	if math.Abs(sum-e.GrossMWh)/e.GrossMWh > 1e-9 {
		t.Errorf("monthly sum %.4f != gross %.4f", sum, e.GrossMWh)
	}

	// Determinism: a second run reproduces the placements.
	res2, err := RunWithField(Config{Scenario: sc, Modules: 32}, res.Evaluator)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Proposed.Rects {
		if res.Proposed.Rects[i] != res2.Proposed.Rects[i] {
			t.Fatal("pipeline is not deterministic")
		}
	}

	// Economics of the sparse-vs-compact decision must be strongly
	// positive when the energy gain is positive.
	if res.ImprovementPct() > 0 {
		m, err := econ.CompareMarginal(res.TraditionalEval.NetMWh(), res.ProposedEval.NetMWh(),
			res.ProposedEval.WiringExtraM, econ.Residential2018(), econ.TurinFeedIn2018())
		if err != nil {
			t.Fatal(err)
		}
		if m.LifetimeNPVGainUSD <= 0 {
			t.Errorf("positive energy gain but negative NPV gain: %+v", m)
		}
	}
}

// TestPipelineFailureInjection drives the facade through every error
// path a misconfigured caller can hit.
func TestPipelineFailureInjection(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}

	// Too many modules for the roof: typed ErrNoSpace surfaces
	// through the wrapped pipeline error.
	_, err = Run(Config{Scenario: sc, Modules: 64})
	if err == nil {
		t.Fatal("64 modules on a 10x6 m roof must fail")
	}
	if !strings.Contains(err.Error(), "modules could be placed") {
		t.Errorf("error should carry the ErrNoSpace detail, got %v", err)
	}

	// Invalid module counts.
	for _, n := range []int{0, -8, 5} {
		if _, err := Run(Config{Scenario: sc, Modules: n}); err == nil {
			t.Errorf("Modules=%d should fail", n)
		}
	}
}
