package pvfloor

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/report"
)

// Fleet is the ranked, totalled view of a run's roof plans — the part
// DistrictResult and CityResult share. Both embed it, so the fields
// read as res.Ranked, res.TotalProposedMWh and so on.
type Fleet struct {
	// Ranked indexes the result's Plans best-first: successfully
	// planned roofs by descending proposed net energy, ties by plan
	// index. With the economics pass enabled, the order follows
	// EconConfig.RankBy and a budget restricts it to the admitted
	// subset.
	Ranked []int
	// TotalProposedMWh / TotalTraditionalMWh / TotalWiringExtraM sum
	// over the ranked roofs.
	TotalProposedMWh    float64
	TotalTraditionalMWh float64
	TotalWiringExtraM   float64
	// Econ summarises the economics pass (nil when disabled).
	Econ *FleetEcon
}

// GainPct returns the aggregate net-energy gain of the proposed
// placements over the traditional baselines, in percent.
func (f *Fleet) GainPct() float64 {
	if f.TotalTraditionalMWh == 0 {
		return 0
	}
	return (f.TotalProposedMWh - f.TotalTraditionalMWh) / f.TotalTraditionalMWh * 100
}

// rankFleet ranks and totals a run's roof plans. Without economics
// every planned roof ranks by descending proposed net energy; with
// it, every planned roof is priced first (see priceFleet) and only
// the admitted subset ranks, by the configured objective. Ties go to
// the lower plan index. It reads only flattened PlanOutcomes, Modules
// and the pass's own Econ rows, so live and checkpoint-restored plans
// rank identically, and re-running it on the same plans reproduces
// the same fleet.
func rankFleet(plans []*RoofPlan, ec EconConfig) (Fleet, error) {
	var f Fleet
	rankBy := RankByEnergy
	if ec.Enabled {
		var err error
		if f.Econ, err = ec.priceFleet(plans); err != nil {
			return Fleet{}, err
		}
		rankBy = f.Econ.RankBy
	}
	for i, rp := range plans {
		if !rp.Planned() || f.Econ != nil && (rp.Econ == nil || !rp.Econ.Admitted) {
			continue
		}
		o := rp.Outcome()
		f.Ranked = append(f.Ranked, i)
		f.TotalProposedMWh += o.ProposedMWh
		f.TotalTraditionalMWh += o.TraditionalMWh
		f.TotalWiringExtraM += o.WiringExtraM
		if f.Econ != nil {
			f.Econ.RoofsAdmitted++
			f.Econ.TotalCapexUSD += rp.Econ.CapexUSD
			f.Econ.TotalNPVUSD += rp.Econ.NPVUSD
			f.Econ.TotalAnnualRevenueUSD += rp.Econ.AnnualRevenueUSD
		}
	}
	slices.SortStableFunc(f.Ranked, func(a, b int) int {
		if c := rankBy.compare(plans[a], plans[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return f, nil
}

// compare orders two ranked roofs best-first under the objective.
func (rb RankBy) compare(a, b *RoofPlan) int {
	switch rb {
	case RankByNPV:
		return cmp.Compare(b.Econ.NPVUSD, a.Econ.NPVUSD)
	case RankByPayback:
		pa, pb := a.Econ.PaybackYears, b.Econ.PaybackYears
		// nil = never pays back = worst.
		switch {
		case pa == nil && pb == nil:
			return 0
		case pa == nil:
			return 1
		case pb == nil:
			return -1
		}
		return cmp.Compare(*pa, *pb)
	}
	return cmp.Compare(b.Outcome().ProposedMWh, a.Outcome().ProposedMWh)
}

// validateSweep checks the module sizing and economics knobs that
// RunDistrict and RunCity share.
func validateSweep(modules, maxModules int, ec EconConfig) error {
	if modules == 0 && maxModules != 0 && maxModules < 8 {
		return fmt.Errorf("pvfloor: MaxModules %d below one 8-module string (use 0 for the default)", maxModules)
	}
	if modules != 0 && (modules < 8 || modules%8 != 0) {
		return fmt.Errorf("pvfloor: Modules %d not a positive multiple of 8 (use 0 to auto-size)", modules)
	}
	return ec.Validate()
}

// fleetTable renders a ranked fleet: one row per roof (ranked roofs
// best-first, then skipped/failed ones) plus aggregate totals and,
// when the economics pass ran, its table — the district-scale
// analogue of the paper's Table I.
func fleetTable(plans []*RoofPlan, f *Fleet) string {
	tbl := report.NewTable("Rank", "Roof", "Bldg", "WxL", "Suit", "Slope", "Aspect", "N",
		"Trad MWh", "Prop MWh", "Gain%", "Wire m")
	addRow := func(rank string, rp *RoofPlan) {
		name := fmt.Sprintf("roof%02d", rp.Roof.ID)
		// Segmented buildings read "1.2" (building 1, plane 2) so the
		// two halves of a gable are recognisably one house.
		bldg := fmt.Sprint(rp.Roof.Building)
		if rp.Roof.Segment > 0 {
			bldg = fmt.Sprintf("%d.%d", rp.Roof.Building, rp.Roof.Segment)
		}
		dims := fmt.Sprintf("%dx%d", rp.Roof.Rect.W(), rp.Roof.Rect.H())
		slope := fmt.Sprintf("%.1f", rp.Roof.Plane.SlopeDeg)
		aspect := fmt.Sprintf("%.0f", rp.Roof.Plane.AspectDeg)
		o := rp.Outcome()
		if o.Planned {
			tbl.AddRow(rank, name, bldg, dims, fmt.Sprint(rp.Roof.Suitable.Count()), slope, aspect,
				fmt.Sprint(rp.Modules),
				fmt.Sprintf("%.3f", o.TraditionalMWh),
				fmt.Sprintf("%.3f", o.ProposedMWh),
				fmt.Sprintf("%+.2f", o.GainPct),
				fmt.Sprintf("%.1f", o.WiringExtraM))
			return
		}
		why := rp.Skipped
		if why == "" && o.RunErr != "" {
			why = "failed: " + o.RunErr
		}
		tbl.AddRow(rank, name, bldg, dims, fmt.Sprint(rp.Roof.Suitable.Count()), slope, aspect,
			"-", why)
	}
	rank := f.ranks()
	for r, pi := range f.Ranked {
		addRow(fmt.Sprint(r+1), plans[pi])
	}
	for i, rp := range plans {
		if rank[i] == 0 {
			addRow("-", rp)
		}
	}
	out := tbl.String()
	out += fmt.Sprintf("\nDistrict totals: %d/%d roofs planned, traditional %.3f MWh, proposed %.3f MWh (%+.2f%%), extra wiring %.1f m\n",
		len(f.Ranked), len(plans), f.TotalTraditionalMWh, f.TotalProposedMWh,
		f.GainPct(), f.TotalWiringExtraM)
	if f.Econ != nil {
		out += econTable(plans, f.Ranked, f.Econ)
	}
	return out
}

// ranks maps a plan index to its 1-based rank (absent = unranked).
func (f *Fleet) ranks() map[int]int {
	rank := make(map[int]int, len(f.Ranked))
	for i, pi := range f.Ranked {
		rank[pi] = i + 1
	}
	return rank
}
