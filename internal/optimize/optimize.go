// Package optimize unifies the placement strategies behind one
// Placer interface over one shared objective (internal/objective):
// the paper's greedy heuristic (§III-C), the exact branch-and-bound
// reference (ablation A3), and a parallel multi-start search that
// anneals the greedy seed (Refine, ablation A4) from K seeds and keeps
// the candidate with the best evaluated yield. Callers select a
// strategy and get back a floorplan.Placement together with the
// Problem.Yield evaluation it was judged by; everything downstream
// (wiring assessment, reports) is strategy-agnostic.
//
// Every strategy here is deterministic: the greedy and branch and
// bound by construction, Refine per seed, and the multi-start search
// for every worker count (restart seeds are derived from the base seed
// by index, and best-of selection scans candidates in index order —
// the same contract as the solar-field engine in internal/solar/field).
package optimize

import (
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/wiring"
)

// Problem is the placement instance every Placer solves: the
// suitability field and mask the roof was simulated on, the greedy
// planner options (shape, topology, distance policy), the wiring spec
// of the shared objective, and the evaluation a placement is judged
// by.
type Problem struct {
	// Suit is the per-cell suitability matrix (required).
	Suit *floorplan.Suitability
	// Mask is the suitable-area mask (required).
	Mask *geom.Mask
	// Opts configures the greedy planner and fixes Shape/Topology for
	// every strategy.
	Opts floorplan.Options
	// Spec prices the wiring (zero value defaults to AWG10 at 0.2 m
	// cells).
	Spec wiring.Spec
	// Yield evaluates a placement by the energy it is reported on
	// (pvfloor passes floorplan.Evaluate); candidates compare by
	// NetMWh, higher is better. Every placer returns the Yield of its
	// placement, evaluated exactly once. MultiStart requires it and
	// may call it concurrently; without it Greedy and BranchBound
	// return a zero Evaluation.
	Yield func(*floorplan.Placement) (floorplan.Evaluation, error)
}

// judge returns pl with its Yield (a zero Evaluation without one),
// passing a planning error through.
func (p Problem) judge(pl *floorplan.Placement, err error) (*floorplan.Placement, floorplan.Evaluation, error) {
	if err != nil || p.Yield == nil {
		return pl, floorplan.Evaluation{}, err
	}
	e, err := p.Yield(pl)
	if err != nil {
		return nil, floorplan.Evaluation{}, err
	}
	return pl, e, nil
}

// newObjective builds the problem's shared objective.
func (p Problem) newObjective() (*objective.Objective, error) {
	return objective.New(p.Suit, p.Mask, objective.Params{
		Shape:        p.Opts.Shape,
		Topology:     p.Opts.Topology,
		WiringWeight: objective.DefaultWiringWeight,
		Spec:         p.Spec,
	})
}

// greedySeed plans the greedy placement the multi-start walks start
// from and builds the objective they refine it against.
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
	// Place solves the problem, returning a series-first placement
	// and its Problem.Yield evaluation.
	Place(p Problem) (*floorplan.Placement, floorplan.Evaluation, error)
}

// Greedy is the paper's ranked-candidate heuristic (§III-C) —
// floorplan.Plan behind the Placer interface. The zero value is ready
// to use.
type Greedy struct{}

// Name implements Placer.
func (Greedy) Name() string { return "greedy" }

// Place implements Placer.
func (Greedy) Place(p Problem) (*floorplan.Placement, floorplan.Evaluation, error) {
	return p.judge(floorplan.Plan(p.Suit, p.Mask, p.Opts))
}
