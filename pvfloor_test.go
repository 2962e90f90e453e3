package pvfloor

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/fieldcache"
	"repro/internal/scenario"
	"repro/internal/solar/field"
)

// openTestCache opens an artifact cache handle on dir through the
// public entry point.
func openTestCache(t testing.TB, dir string) *fieldcache.Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Shared residential run (cheapest scenario) for facade tests.
var (
	resOnce sync.Once
	resRun  *Result
	resErr  error
)

func residentialRun(t *testing.T) *Result {
	t.Helper()
	resOnce.Do(func() {
		sc, err := Residential()
		if err != nil {
			resErr = err
			return
		}
		resRun, resErr = Run(Config{Scenario: sc, Modules: 8})
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return resRun
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil scenario must error")
	}
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Scenario: sc, Modules: 7}); err == nil {
		t.Error("module count not divisible by string length must error")
	}
	if _, err := RunWithField(Config{Scenario: sc}, nil); err == nil {
		t.Error("nil field must error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	res := residentialRun(t)
	if res.Proposed == nil || res.Traditional == nil {
		t.Fatal("missing placements")
	}
	if len(res.Proposed.Rects) != 8 {
		t.Errorf("proposed has %d modules", len(res.Proposed.Rects))
	}
	if !res.Proposed.OverlapFree() || !res.Proposed.WithinMask(res.Scenario.Suitable) {
		t.Error("proposed placement infeasible")
	}
	if res.ProposedEval.GrossMWh <= 0 || res.TraditionalEval.GrossMWh <= 0 {
		t.Error("non-positive production")
	}
	// 8 modules × 165 W: hard nameplate ceiling 11.6 MWh/yr; realistic
	// Turin production ≈ 1.3-2 MWh.
	if res.ProposedEval.GrossMWh > 2.5 {
		t.Errorf("implausible production %.2f MWh", res.ProposedEval.GrossMWh)
	}
	if res.ImprovementPct() < -2 {
		t.Errorf("proposed placement should not lose: %+.1f%%", res.ImprovementPct())
	}
}

func TestResultRenders(t *testing.T) {
	res := residentialRun(t)
	prop := res.ProposedMap(80)
	if !strings.ContainsAny(prop, "A") {
		t.Error("proposed map missing modules")
	}
	trad := res.TraditionalMap(80)
	if !strings.ContainsAny(trad, "A") {
		t.Error("traditional map missing modules")
	}
	if heat := res.SuitabilityMap(80); len(heat) == 0 {
		t.Error("empty suitability map")
	}
}

func TestTableIRowFromResult(t *testing.T) {
	res := residentialRun(t)
	row := res.TableIRow()
	if row.Roof != "Residential" || row.N != 8 {
		t.Errorf("row = %+v", row)
	}
	if row.Ng != res.Scenario.Ng() {
		t.Error("row Ng mismatch")
	}
	if row.ProposedMWh <= 0 || row.TraditionalMWh <= 0 {
		t.Error("row energies missing")
	}
}

func TestSkipBaseline(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Scenario: sc, Modules: 8, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traditional != nil {
		t.Error("baseline should be skipped")
	}
	if res.Proposed == nil || res.ProposedEval.GrossMWh <= 0 {
		t.Error("proposed run incomplete")
	}
}

func TestRunWithFieldReuse(t *testing.T) {
	// Reusing one field across module counts must work and keep the
	// physics identical (same stats pointer semantics not required,
	// but energies must be consistent: more modules, more energy).
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldFast(scenario.FastGrid())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunWithField(Config{Scenario: sc, Modules: 8}, ev)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := RunWithField(Config{Scenario: sc, Modules: 16}, ev)
	if err != nil {
		t.Fatal(err)
	}
	if !(r16.ProposedEval.GrossMWh > r8.ProposedEval.GrossMWh) {
		t.Error("16 modules must out-produce 8")
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"":            StrategyGreedy,
		"greedy":      StrategyGreedy,
		"multistart":  StrategyMultiStart,
		"bnb":         StrategyBranchBound,
		"branchbound": StrategyBranchBound,
	} {
		got, err := ParseStrategy(in)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseStrategy(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"tabu", "anneal"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) must error", bad)
		}
	}
}

func TestOptimizerPlacer(t *testing.T) {
	for _, tc := range []struct {
		cfg  OptimizerConfig
		want string
	}{
		{OptimizerConfig{}, "greedy"},
		{OptimizerConfig{Strategy: StrategyGreedy}, "greedy"},
		{OptimizerConfig{Strategy: StrategyMultiStart}, "multistart"},
		{OptimizerConfig{Strategy: StrategyMultiStart, Restarts: 5}, "multistart(5)"},
		{OptimizerConfig{Strategy: StrategyBranchBound}, "bnb"},
	} {
		pl, err := tc.cfg.placer(0)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if got := pl.Name(); got != tc.want {
			t.Errorf("%+v placer = %q, want %q", tc.cfg, got, tc.want)
		}
	}
	if _, err := (OptimizerConfig{Strategy: "quantum"}).placer(0); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestOptimizerStrategySelection(t *testing.T) {
	base := residentialRun(t) // default greedy
	sc := base.Scenario
	// multistart must reuse the cached field (same evaluator) and give
	// a feasible placement yielding at least the greedy net energy.
	multi, err := RunWithField(Config{
		Scenario:  sc,
		Modules:   8,
		Optimizer: OptimizerConfig{Strategy: StrategyMultiStart, Seed: 2, Iterations: 4000, Restarts: 3},
	}, base.Evaluator)
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Proposed.OverlapFree() || !multi.Proposed.WithinMask(sc.Suitable) {
		t.Error("multistart placement infeasible")
	}
	if len(multi.Proposed.Rects) != len(base.Proposed.Rects) {
		t.Error("multistart module count differs")
	}
	if multi.ProposedEval.NetMWh() < base.ProposedEval.NetMWh() {
		t.Errorf("multistart net %v MWh below greedy %v", multi.ProposedEval.NetMWh(), base.ProposedEval.NetMWh())
	}
	// An unknown strategy must fail loudly, not fall back to greedy.
	if _, err := RunWithField(Config{
		Scenario:  sc,
		Modules:   8,
		Optimizer: OptimizerConfig{Strategy: Strategy("tabu")},
	}, base.Evaluator); err == nil {
		t.Error("unknown strategy must error")
	}
}

// TestStrategyNetEnergyNotBelowGreedy holds the stochastic placer to
// the measure the reports judge it by: on the paper's Table I cases
// (Roofs 1-3 x N in {16, 32}, one Fast field per roof, Seed 1, default
// restarts and iterations) multistart's net energy must never fall
// below the greedy heuristic's, and must beat it on most cases.
func TestStrategyNetEnergyNotBelowGreedy(t *testing.T) {
	better := 0
	for _, mk := range []func() (*scenario.Scenario, error){Roof1, Roof2, Roof3} {
		sc, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var ev *field.Evaluator
		for _, n := range []int{16, 32} {
			cfg := Config{Scenario: sc, Modules: n, SkipBaseline: true}
			var greedy *Result
			if ev == nil {
				greedy, err = Run(cfg)
				if err == nil {
					ev = greedy.Evaluator
				}
			} else {
				greedy, err = RunWithField(cfg, ev)
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg.Optimizer = OptimizerConfig{Strategy: StrategyMultiStart, Seed: 1}
			multi, err := RunWithField(cfg, ev)
			if err != nil {
				t.Fatal(err)
			}
			g, m := greedy.ProposedEval.NetMWh(), multi.ProposedEval.NetMWh()
			t.Logf("%s N=%d: greedy %.4f MWh, multistart %.4f MWh", sc.Name, n, g, m)
			if m < g {
				t.Errorf("%s N=%d: multistart net %v MWh below greedy %v", sc.Name, n, m, g)
			}
			if m > g {
				better++
			}
		}
	}
	if better < 4 {
		t.Errorf("multistart beat greedy on %d of 6 cases, want at least 4", better)
	}
}

func TestBatchNameCarriesOptimizerStrategy(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: sc, Modules: 8}
	if got := cfg.Name(); got != "Residential/N=8" {
		t.Errorf("default name = %q", got)
	}
	cfg.Optimizer.Strategy = StrategyMultiStart
	if got := cfg.Name(); got != "Residential/N=8/multistart" {
		t.Errorf("multistart name = %q", got)
	}
	cfg.Optimizer.Strategy = StrategyGreedy
	if got := cfg.Name(); got != "Residential/N=8" {
		t.Errorf("explicit greedy name = %q", got)
	}
}
