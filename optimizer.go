package pvfloor

import (
	"fmt"

	"repro/internal/objective"
	"repro/internal/optimize"
)

// Strategy names a placement-search strategy of the optimizer layer
// (internal/optimize). All strategies optimise the same shared
// objective — suitability sum minus a wiring-length penalty — and all
// are deterministic: greedy and bnb by construction, anneal per
// Seed, multistart per Seed for every worker count.
type Strategy string

const (
	// StrategyGreedy is the paper's §III-C ranked-candidate heuristic
	// (the default; an empty Strategy means greedy).
	StrategyGreedy Strategy = "greedy"
	// StrategyAnneal refines the greedy placement by simulated
	// annealing with O(1)-per-move incremental objective evaluation.
	StrategyAnneal Strategy = "anneal"
	// StrategyMultiStart runs Restarts independent annealing walks in
	// parallel over one precomputed score table and keeps the best.
	StrategyMultiStart Strategy = "multistart"
	// StrategyBranchBound is the exact branch-and-bound reference —
	// feasible only on reduced instances (small Modules counts).
	StrategyBranchBound Strategy = "bnb"
)

// ParseStrategy maps a user-facing string ("greedy", "anneal",
// "multistart", "bnb"/"branchbound", or "" for the default) to a
// Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "greedy":
		return StrategyGreedy, nil
	case "anneal":
		return StrategyAnneal, nil
	case "multistart":
		return StrategyMultiStart, nil
	case "bnb", "branchbound":
		return StrategyBranchBound, nil
	default:
		return "", fmt.Errorf("pvfloor: unknown optimizer strategy %q (want greedy, anneal, multistart or bnb)", s)
	}
}

// OptimizerConfig selects and tunes the placement strategy of a run.
// The zero value is the paper's greedy heuristic, preserving the
// pre-optimizer behaviour of Run exactly.
type OptimizerConfig struct {
	// Strategy picks the search ("" = greedy).
	Strategy Strategy
	// Seed fixes the stochastic strategies' random walks.
	Seed int64
	// Iterations is the annealing move budget per walk (0 = the
	// annealer's default, 20000).
	Iterations int
	// Restarts is the multistart walk count K (0 = 8).
	Restarts int
	// SearchWorkers bounds the multistart restart pool: 0 = one
	// worker per CPU, 1 = serial. The result is identical for every
	// value.
	SearchWorkers int
	// WiringWeight overrides the objective's cable price in objective
	// units per metre (0 = the default 0.05; to actually disable the
	// penalty set NoWiringPenalty).
	WiringWeight float64
	// NoWiringPenalty drops the wiring term from the refinement
	// objective entirely.
	NoWiringPenalty bool
}

// label returns the strategy tag batch names carry ("" for the
// default greedy).
func (oc OptimizerConfig) label() string {
	if oc.Strategy == "" || oc.Strategy == StrategyGreedy {
		return ""
	}
	return string(oc.Strategy)
}

// placer resolves the config into an internal/optimize Placer.
func (oc OptimizerConfig) placer() (optimize.Placer, error) {
	switch oc.Strategy {
	case "", StrategyGreedy:
		return optimize.Greedy{}, nil
	case StrategyAnneal:
		return optimize.Annealed{Seed: oc.Seed, Iterations: oc.Iterations}, nil
	case StrategyMultiStart:
		return optimize.MultiStart{Seed: oc.Seed, Iterations: oc.Iterations,
			Restarts: oc.Restarts, Workers: oc.SearchWorkers}, nil
	case StrategyBranchBound:
		return optimize.BranchBound{}, nil
	default:
		return nil, fmt.Errorf("pvfloor: unknown optimizer strategy %q (want greedy, anneal, multistart or bnb)", oc.Strategy)
	}
}

// wiringWeight resolves the objective's cable price: 0 under
// NoWiringPenalty, else the override, else the default.
func (oc OptimizerConfig) wiringWeight() float64 {
	switch {
	case oc.NoWiringPenalty:
		return 0
	case oc.WiringWeight != 0:
		return oc.WiringWeight
	default:
		return objective.DefaultWiringWeight
	}
}
