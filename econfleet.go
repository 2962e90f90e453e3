package pvfloor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/econ"
	"repro/internal/report"
)

// This file revives internal/econ into the fleet objective: district
// and city runs can price every planned roof (capex, NPV, payback,
// LCOE over a mixed panel catalog), rank the fleet by economic value
// instead of raw energy, and greedily admit roofs against a capital
// budget — the "best N roofs for this budget" scenario. The pass is a
// pure post-processing step over flattened PlanOutcomes: it never
// touches the physics hot path, it is idempotent, and it prices
// checkpoint-restored plans byte-identically to live ones.

// simulatedModuleWatts is the STC nameplate of the module the physics
// pipeline simulates (the paper's Mitsubishi PV-MF165EB3, 165 W).
// Panel catalog classes scale the simulated energy by their nameplate
// ratio: a 330 W module in the same footprint under the same
// irradiance yields twice the energy of the simulated 165 W one.
const simulatedModuleWatts = 165.0

// PanelClass is one module class of the fleet's panel catalog.
type PanelClass struct {
	// Name labels the class in reports ("mono-330").
	Name string `json:"name"`
	// WattsSTC is the module nameplate at STC; the class's energy is
	// the simulated energy scaled by WattsSTC/165 (the simulated
	// module's nameplate).
	WattsSTC float64 `json:"watts_stc"`
	// ModuleUSD is the per-module price (0 = the cost model's
	// ModuleUSD).
	ModuleUSD float64 `json:"module_usd,omitempty"`
}

// DefaultPanelCatalog is the built-in two-class catalog: the paper's
// 165 W module and a 330 W class at a slightly better $/W — the
// "panel type is a decision variable" axis of the fleet objective.
func DefaultPanelCatalog() []PanelClass {
	return []PanelClass{
		{Name: "mono-165", WattsSTC: 165, ModuleUSD: 150},
		{Name: "mono-330", WattsSTC: 330, ModuleUSD: 290},
	}
}

// RankBy selects the fleet ranking objective.
type RankBy string

const (
	// RankByEnergy ranks by descending proposed net energy — exactly
	// today's ranking, bit-identical with economics on or off.
	RankByEnergy RankBy = "energy"
	// RankByNPV ranks by descending net present value of each roof's
	// selected panel class.
	RankByNPV RankBy = "npv"
	// RankByPayback ranks by ascending simple payback; roofs that
	// never pay back sort last.
	RankByPayback RankBy = "payback"
)

// ParseRankBy maps a CLI/API string onto a RankBy ("" = energy).
func ParseRankBy(s string) (RankBy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", string(RankByEnergy):
		return RankByEnergy, nil
	case string(RankByNPV):
		return RankByNPV, nil
	case string(RankByPayback):
		return RankByPayback, nil
	default:
		return "", fmt.Errorf("pvfloor: unknown rank-by %q (want energy, npv or payback)", s)
	}
}

// EconConfig switches district/city runs into economics-aware fleet
// ranking. The zero value disables the pass entirely — results are
// then byte-identical to an economics-free build.
type EconConfig struct {
	// Enabled turns the economics pass on.
	Enabled bool
	// Cost prices the capital items (zero value =
	// econ.Residential2018()).
	Cost econ.CostModel
	// Financials parameterises the discounted-cashflow analysis (zero
	// value = econ.TurinFeedIn2018()).
	Financials econ.Financials
	// Catalog is the panel catalog; every planned roof selects the
	// class maximising its NPV (nil = DefaultPanelCatalog()).
	Catalog []PanelClass
	// BudgetUSD caps the fleet's total capital. When positive, roofs
	// are admitted greedily in descending marginal-NPV-per-dollar
	// order (the Downstream-Power-Index style sequential placement)
	// until no remaining positive-NPV roof fits; only admitted roofs
	// are ranked and totalled. 0 = unbounded, every planned roof is
	// admitted.
	BudgetUSD float64
	// RankBy selects the ranking objective ("" = energy).
	RankBy RankBy
}

// resolved validates the config and fills the documented defaults.
func (ec EconConfig) resolved() (econ.CostModel, econ.Financials, []PanelClass, RankBy, error) {
	cost := ec.Cost
	if cost == (econ.CostModel{}) {
		cost = econ.Residential2018()
	}
	fin := ec.Financials
	if fin == (econ.Financials{}) {
		fin = econ.TurinFeedIn2018()
	}
	catalog := ec.Catalog
	if len(catalog) == 0 {
		catalog = DefaultPanelCatalog()
	}
	rankBy, err := ParseRankBy(string(ec.RankBy))
	if err != nil {
		return cost, fin, nil, rankBy, err
	}
	if err := cost.Validate(); err != nil {
		return cost, fin, nil, rankBy, err
	}
	if err := fin.Validate(); err != nil {
		return cost, fin, nil, rankBy, err
	}
	if ec.BudgetUSD < 0 {
		return cost, fin, nil, rankBy, fmt.Errorf("pvfloor: negative budget $%g", ec.BudgetUSD)
	}
	for i, pc := range catalog {
		if pc.Name == "" {
			return cost, fin, nil, rankBy, fmt.Errorf("pvfloor: panel class %d unnamed", i)
		}
		if pc.WattsSTC <= 0 {
			return cost, fin, nil, rankBy, fmt.Errorf("pvfloor: panel class %q nameplate %g W", pc.Name, pc.WattsSTC)
		}
		if pc.ModuleUSD < 0 {
			return cost, fin, nil, rankBy, fmt.Errorf("pvfloor: panel class %q price $%g", pc.Name, pc.ModuleUSD)
		}
	}
	return cost, fin, catalog, rankBy, nil
}

// Validate reports whether the config can run, without running it —
// request surfaces use it to fail fast before streaming starts.
func (ec EconConfig) Validate() error {
	if !ec.Enabled {
		return nil
	}
	_, _, _, _, err := ec.resolved()
	return err
}

// EconReport is the per-roof economics row of a district/city report:
// the selected panel class priced through internal/econ. PaybackYears
// and LCOEUSDPerKWh are nil when the roof never pays back / never
// produces (the +Inf sentinels, which raw encoding/json rejects).
type EconReport struct {
	// PanelClass names the selected catalog class.
	PanelClass string `json:"panel_class"`
	// NameplateKW is the array nameplate under that class.
	NameplateKW float64 `json:"nameplate_kw"`
	// EnergyMWh is the class-scaled annual net energy.
	EnergyMWh float64 `json:"energy_mwh"`
	// CapexUSD / AnnualRevenueUSD / NPVUSD price the system.
	CapexUSD         float64 `json:"capex_usd"`
	AnnualRevenueUSD float64 `json:"annual_revenue_usd"`
	NPVUSD           float64 `json:"npv_usd"`
	// NPVPerUSD is the marginal value density (NPV per capex dollar)
	// — the greedy budget admission's ranking key.
	NPVPerUSD float64 `json:"npv_per_usd"`
	// PaybackYears is the simple payback (nil = never pays back).
	PaybackYears *float64 `json:"payback_years"`
	// LCOEUSDPerKWh is the levelised cost of energy (nil = zero
	// production).
	LCOEUSDPerKWh *float64 `json:"lcoe_usd_per_kwh"`
	// MarginalNPVGainUSD / MarginalPaybackYears price the sparse-vs-
	// compact decision for this roof (the paper's iso-cost claim):
	// lifetime NPV of choosing the proposed placement over the
	// traditional one, and how long the extra cable takes to pay for
	// itself (nil = never). Absent when the baseline was skipped.
	MarginalNPVGainUSD   float64  `json:"marginal_npv_gain_usd,omitempty"`
	MarginalPaybackYears *float64 `json:"marginal_payback_years,omitempty"`
	// Admitted reports whether the roof made the fleet: always true
	// without a budget, the greedy knapsack's verdict with one.
	Admitted bool `json:"admitted"`
}

// FleetEcon summarises the economics pass over a district/city run.
type FleetEcon struct {
	// RankBy echoes the resolved ranking objective.
	RankBy RankBy
	// BudgetUSD echoes the cap (0 = unbounded).
	BudgetUSD float64
	// RoofsAdmitted counts the admitted roofs.
	RoofsAdmitted int
	// TotalCapexUSD / TotalNPVUSD / TotalAnnualRevenueUSD sum over
	// the admitted roofs.
	TotalCapexUSD         float64
	TotalNPVUSD           float64
	TotalAnnualRevenueUSD float64
}

// assessRoof prices one planned roof across the catalog and returns
// the NPV-maximising class (ties keep the earlier catalog entry).
func assessRoof(o PlanOutcome, modules int, cost econ.CostModel, fin econ.Financials, catalog []PanelClass) (*EconReport, error) {
	var best *EconReport
	var bestScale float64
	for _, pc := range catalog {
		scale := pc.WattsSTC / simulatedModuleWatts
		c := cost
		if pc.ModuleUSD > 0 {
			c.ModuleUSD = pc.ModuleUSD
		}
		nameplateKW := float64(modules) * pc.WattsSTC / 1000
		a, err := econ.Assess(o.ProposedMWh*scale, modules, nameplateKW, o.WiringExtraM, c, fin)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", pc.Name, err)
		}
		rep := &EconReport{
			PanelClass:       pc.Name,
			NameplateKW:      nameplateKW,
			EnergyMWh:        o.ProposedMWh * scale,
			CapexUSD:         a.CapexUSD,
			AnnualRevenueUSD: a.AnnualRevenueUSD,
			NPVUSD:           a.NPVUSD,
			PaybackYears:     econ.FinitePtr(a.SimplePaybackYears),
			LCOEUSDPerKWh:    econ.FinitePtr(a.LCOEUSDPerKWh),
		}
		if a.CapexUSD > 0 {
			rep.NPVPerUSD = a.NPVUSD / a.CapexUSD
		}
		if best == nil || rep.NPVUSD > best.NPVUSD {
			best, bestScale = rep, scale
		}
	}
	if o.TraditionalMWh > 0 {
		m, err := econ.CompareMarginal(o.TraditionalMWh*bestScale, o.ProposedMWh*bestScale,
			o.WiringExtraM, cost, fin)
		if err != nil {
			return nil, err
		}
		best.MarginalNPVGainUSD = m.LifetimeNPVGainUSD
		best.MarginalPaybackYears = econ.FinitePtr(m.PaybackYears)
	}
	return best, nil
}

// priceFleet runs the pricing half of the economics pass: it prices
// every planned roof (selecting its panel class, into rp.Econ) and
// admits against the budget. rankFleet then ranks and totals the
// admitted subset into the returned summary. It reads only flattened
// PlanOutcomes and Modules, so live and checkpoint-restored plans
// price identically.
func (ec EconConfig) priceFleet(plans []*RoofPlan) (*FleetEcon, error) {
	cost, fin, catalog, rankBy, err := ec.resolved()
	if err != nil {
		return nil, err
	}

	var planned []int
	for i, rp := range plans {
		rp.Econ = nil
		if !rp.Planned() || rp.Modules <= 0 {
			continue
		}
		rep, err := assessRoof(rp.Outcome(), rp.Modules, cost, fin, catalog)
		if err != nil {
			return nil, fmt.Errorf("pvfloor: econ roof %d: %w", rp.Roof.ID, err)
		}
		rp.Econ = rep
		planned = append(planned, i)
	}

	// Sequential greedy admission: walk the planned roofs in
	// descending marginal-NPV-per-dollar order (ties by plan index)
	// and admit every positive-NPV roof whose capex still fits —
	// roofs too expensive for the remaining budget are skipped, not
	// terminal, so the budget fills as tightly as the greedy order
	// allows. Without a budget every planned roof is admitted.
	if ec.BudgetUSD > 0 {
		slices.SortStableFunc(planned, func(a, b int) int {
			if c := cmp.Compare(plans[b].Econ.NPVPerUSD, plans[a].Econ.NPVPerUSD); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		remaining := ec.BudgetUSD
		for _, i := range planned {
			e := plans[i].Econ
			if e.NPVUSD <= 0 || e.CapexUSD > remaining {
				continue
			}
			e.Admitted = true
			remaining -= e.CapexUSD
		}
	} else {
		for _, i := range planned {
			plans[i].Econ.Admitted = true
		}
	}
	return &FleetEcon{RankBy: rankBy, BudgetUSD: ec.BudgetUSD}, nil
}

// econTable renders the admitted fleet's economics as a ranked table
// plus the fleet summary line — appended to the district/city table
// when the pass ran.
func econTable(plans []*RoofPlan, ranked []int, fleet *FleetEcon) string {
	tbl := report.NewTable("Rank", "Roof", "Class", "kW", "Capex $", "NPV $", "NPV/$", "Payback yr", "LCOE $/kWh")
	fmtOrNever := func(p *float64, format string) string {
		if p == nil {
			return "never"
		}
		return fmt.Sprintf(format, *p)
	}
	for rank, pi := range ranked {
		rp := plans[pi]
		if rp.Econ == nil {
			continue
		}
		e := rp.Econ
		tbl.AddRow(fmt.Sprint(rank+1), fmt.Sprintf("roof%02d", rp.Roof.ID), e.PanelClass,
			fmt.Sprintf("%.2f", e.NameplateKW),
			fmt.Sprintf("%.0f", e.CapexUSD),
			fmt.Sprintf("%.0f", e.NPVUSD),
			fmt.Sprintf("%.3f", e.NPVPerUSD),
			fmtOrNever(e.PaybackYears, "%.1f"),
			fmtOrNever(e.LCOEUSDPerKWh, "%.3f"))
	}
	out := "\n" + tbl.String()
	out += fmt.Sprintf("Fleet economics (%s ranking", fleet.RankBy)
	if fleet.BudgetUSD > 0 {
		out += fmt.Sprintf(", budget $%.0f", fleet.BudgetUSD)
	}
	out += fmt.Sprintf("): %d roofs admitted, capex $%.0f, NPV $%.0f, revenue $%.0f/yr\n",
		fleet.RoofsAdmitted, fleet.TotalCapexUSD, fleet.TotalNPVUSD, fleet.TotalAnnualRevenueUSD)
	return out
}
