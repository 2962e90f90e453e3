package pvfloor

import (
	"fmt"

	"repro/internal/optimize"
)

// Strategy names a placement-search strategy of the optimizer layer
// (internal/optimize). All strategies search one shared objective —
// suitability sum minus a wiring-length penalty — and all are
// deterministic: greedy and bnb by construction, multistart per Seed
// for every worker count.
type Strategy string

const (
	// StrategyGreedy is the paper's §III-C ranked-candidate heuristic
	// (the default; an empty Strategy means greedy).
	StrategyGreedy Strategy = "greedy"
	// StrategyMultiStart runs Restarts independent annealing walks
	// from the greedy seed in parallel over one precomputed score
	// table and keeps the placement with the best evaluated net
	// energy among the greedy seed and the walks.
	StrategyMultiStart Strategy = "multistart"
	// StrategyBranchBound is the exact branch-and-bound reference —
	// feasible only on reduced instances (small Modules counts).
	StrategyBranchBound Strategy = "bnb"
)

// ParseStrategy maps a user-facing string ("greedy", "multistart",
// "bnb"/"branchbound", or "" for the default) to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "greedy":
		return StrategyGreedy, nil
	case "multistart":
		return StrategyMultiStart, nil
	case "bnb", "branchbound":
		return StrategyBranchBound, nil
	default:
		return "", fmt.Errorf("pvfloor: unknown optimizer strategy %q (want greedy, multistart or bnb)", s)
	}
}

// OptimizerConfig selects and tunes the placement strategy of a run.
// The zero value is the paper's greedy heuristic, preserving the
// pre-optimizer behaviour of Run exactly. The multistart restart pool
// is the run's Config.Workers.
type OptimizerConfig struct {
	// Strategy picks the search ("" = greedy).
	Strategy Strategy
	// Seed fixes the multistart random walks.
	Seed int64
	// Iterations is the annealing move budget per walk (0 = the
	// annealer's default, 20000).
	Iterations int
	// Restarts is the multistart walk count K (0 = 8).
	Restarts int
}

// label returns the strategy tag batch names carry ("" for the
// default greedy).
func (oc OptimizerConfig) label() string {
	if oc.Strategy == "" || oc.Strategy == StrategyGreedy {
		return ""
	}
	return string(oc.Strategy)
}

// placer resolves the config into an internal/optimize Placer;
// workers bounds the multistart restart pool (0 = one per CPU).
func (oc OptimizerConfig) placer(workers int) (optimize.Placer, error) {
	switch oc.Strategy {
	case "", StrategyGreedy:
		return optimize.Greedy{}, nil
	case StrategyMultiStart:
		return optimize.MultiStart{Seed: oc.Seed, Iterations: oc.Iterations,
			Restarts: oc.Restarts, Workers: workers}, nil
	case StrategyBranchBound:
		return optimize.BranchBound{}, nil
	default:
		return nil, fmt.Errorf("pvfloor: unknown optimizer strategy %q (want greedy, multistart or bnb)", oc.Strategy)
	}
}
