package pvfloor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/district"
	"repro/internal/geom"
)

// TestRankFleetObjectives drives the fleet pass over restored plans —
// no physics — under every ranking objective: each order must be
// best-first by its objective with ties in plan order, roofs that
// never pay back last, and the totals must sum the ranked roofs.
func TestRankFleetObjectives(t *testing.T) {
	restored := func(modules int, proposed, traditional float64) RoofPlan {
		return RoofPlan{Modules: modules, Restored: &PlanOutcome{
			Planned: true, ProposedMWh: proposed, TraditionalMWh: traditional,
		}}
	}
	fleet := []RoofPlan{
		restored(8, 1.0, 0.9),
		restored(16, 3.0, 2.5),
		restored(8, 0, 0), // produces nothing: never pays back
		{Skipped: "too small", Restored: &PlanOutcome{}},
		restored(16, 3.0, 2.0), // ties roof 1 on energy, NPV and payback
		restored(8, 0, 0),
		{Restored: &PlanOutcome{RunErr: "no space"}},
	}
	plans := make([]*RoofPlan, len(fleet))
	for i := range fleet {
		fleet[i].Roof = district.Roof{ID: i + 1, Building: i + 1, Suitable: geom.NewMask(2, 2)}
		plans[i] = &fleet[i]
	}

	f, err := rankFleet(plans, EconConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(f.Ranked), "[1 4 0 2 5]"; got != want {
		t.Errorf("energy ranking %s, want %s", got, want)
	}
	if f.TotalProposedMWh != 7 || f.TotalTraditionalMWh != 5.4 || f.Econ != nil {
		t.Errorf("energy totals %v / %v MWh, econ %+v", f.TotalProposedMWh, f.TotalTraditionalMWh, f.Econ)
	}
	if g := f.GainPct(); g <= 0 {
		t.Errorf("fleet gain %.2f%%, want positive", g)
	}
	table := fleetTable(plans, &f)
	for _, want := range []string{"too small", "failed: no space", "5/7 roofs planned"} {
		if !strings.Contains(table, want) {
			t.Errorf("fleet table lacks %q:\n%s", want, table)
		}
	}
	if rj := newRoofReport(plans[6], 0); rj.Error != "no space" || rj.GainPct != nil {
		t.Errorf("failed roof reports error %q, gain %v", rj.Error, rj.GainPct)
	}

	for _, rankBy := range []RankBy{RankByNPV, RankByPayback} {
		f, err := rankFleet(plans, EconConfig{Enabled: true, RankBy: rankBy})
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Ranked) != 5 || f.Econ == nil || f.Econ.RoofsAdmitted != 5 || f.Econ.RankBy != rankBy {
			t.Fatalf("%s: ranked %v, fleet %+v", rankBy, f.Ranked, f.Econ)
		}
		// key is the objective as a number to minimise; never paying
		// back counts as the worst payback.
		key := func(e *EconReport) float64 {
			if rankBy == RankByNPV {
				return -e.NPVUSD
			}
			if e.PaybackYears == nil {
				return math.Inf(1)
			}
			return *e.PaybackYears
		}
		for i := 1; i < len(f.Ranked); i++ {
			pa, pb := f.Ranked[i-1], f.Ranked[i]
			ka, kb := key(plans[pa].Econ), key(plans[pb].Econ)
			if ka > kb || ka == kb && pa > pb {
				t.Errorf("%s: plan %d ranked before plan %d", rankBy, pa, pb)
			}
		}
		if rankBy == RankByPayback {
			if got, want := fmt.Sprint(f.Ranked[3:]), "[2 5]"; got != want {
				t.Errorf("payback ranking ends %s, want the never-paying roofs %s", got, want)
			}
		}
	}

	empty, err := rankFleet(plans[3:4], EconConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Ranked) != 0 || empty.GainPct() != 0 {
		t.Errorf("unplanned fleet ranked %v with gain %v%%", empty.Ranked, empty.GainPct())
	}
}
