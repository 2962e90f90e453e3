// Package optimize unifies the placement strategies behind one
// Placer interface over one shared objective (internal/objective):
// the paper's greedy heuristic (§III-C), the simulated-annealing
// refinement (ablation A4), the exact branch-and-bound reference
// (ablation A3), and a parallel multi-start annealer. Callers select
// a strategy and get back a floorplan.Placement; everything downstream
// (energy evaluation, wiring assessment, reports) is
// strategy-agnostic.
//
// Every strategy here is deterministic: the greedy and branch and
// bound by construction, the annealers per seed, and the multi-start
// search for every worker count (restart seeds are derived from the
// base seed by index, and best-of selection scans restarts in index
// order — the same contract as the solar-field engine in
// internal/solar/field).
package optimize

import (
	"math"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/wiring"
)

// Problem is the placement instance every Placer solves: the
// suitability field and mask the roof was simulated on, the greedy
// planner options (shape, topology, distance policy), and the wiring
// terms of the shared objective.
type Problem struct {
	// Suit is the per-cell suitability matrix (required).
	Suit *floorplan.Suitability
	// Mask is the suitable-area mask (required).
	Mask *geom.Mask
	// Opts configures the greedy planner and fixes Shape/Topology for
	// every strategy.
	Opts floorplan.Options
	// WiringWeight prices extra cable metres in the refinement
	// objective (0 disables the penalty; objective.DefaultWiringWeight
	// is the standard price).
	WiringWeight float64
	// Spec prices the wiring (zero value defaults to AWG10 at 0.2 m
	// cells).
	Spec wiring.Spec
}

// newObjective builds the problem's shared objective.
func (p Problem) newObjective() (*objective.Objective, error) {
	return objective.New(p.Suit, p.Mask, objective.Params{
		Shape:        p.Opts.Shape,
		Topology:     p.Opts.Topology,
		WiringWeight: p.WiringWeight,
		Spec:         p.Spec,
	})
}

// greedySeed plans the greedy placement the annealers start from and
// builds the objective they refine it against.
func (p Problem) greedySeed() (*floorplan.Placement, *objective.Objective, error) {
	pl, err := floorplan.Plan(p.Suit, p.Mask, p.Opts)
	if err != nil {
		return nil, nil, err
	}
	obj, err := p.newObjective()
	if err != nil {
		return nil, nil, err
	}
	return pl, obj, nil
}

// Placer is one placement strategy over the shared objective.
type Placer interface {
	// Name identifies the strategy in labels, batch names and logs.
	Name() string
	// Place solves the problem, returning a series-first placement.
	Place(p Problem) (*floorplan.Placement, error)
}

// Greedy is the paper's ranked-candidate heuristic (§III-C) —
// floorplan.Plan behind the Placer interface. The zero value is ready
// to use.
type Greedy struct{}

// Name implements Placer.
func (Greedy) Name() string { return "greedy" }

// Place implements Placer.
func (Greedy) Place(p Problem) (*floorplan.Placement, error) {
	return floorplan.Plan(p.Suit, p.Mask, p.Opts)
}

// Value evaluates a placement under the problem's objective — the
// number strategies are compared on.
func Value(p Problem, pl *floorplan.Placement) (float64, error) {
	obj, err := p.newObjective()
	if err != nil {
		return math.NaN(), err
	}
	return obj.FromScratch(pl.Rects)
}
