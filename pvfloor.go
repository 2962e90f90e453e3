// Package pvfloor is the public facade of the GIS-based PV
// floorplanning library — a from-scratch Go reproduction of
//
//	S. Vinco, L. Bottaccioli, E. Patti, A. Acquaviva, E. Macii,
//	M. Poncino, "GIS-Based Optimal Photovoltaic Panel Floorplanning
//	for Residential Installations", DATE 2018.
//
// The facade wires the full pipeline together: a (synthetic) DSM
// scene with its suitable area, the year-long solar-field simulation
// (sun position → clear sky → weather → decomposition → transposition
// → horizon shadows), the per-cell suitability statistics, the greedy
// sparse floorplanner and the traditional compact baseline, and the
// topology-aware energy evaluation with wiring overhead.
//
//	sc, _ := pvfloor.Roof2()
//	res, _ := pvfloor.Run(pvfloor.Config{Scenario: sc, Modules: 32})
//	fmt.Printf("traditional %.2f MWh, proposed %.2f MWh (%+.1f%%)\n",
//	    res.TraditionalEval.NetMWh(), res.ProposedEval.NetMWh(),
//	    res.ImprovementPct())
//
// # Fidelity
//
// Config.Fidelity trades accuracy for runtime. Fast (the default)
// simulates a reduced calendar — hourly steps, one day per ~monthly
// stride, scaled back to annual totals — over a coarse horizon map:
// well under a second per roof, right for tests, exploration and
// interactive sweeps. Full runs the paper's setup — a full year at
// 15-minute steps over fine horizon maps — at roughly ten times the
// cost: seconds per roof, not minutes (pvbatch -full -roofs 2 -n 16
// takes about 1.4 s). Both fidelities run the identical physics
// pipeline, but they do not plan alike: evaluated on the Full field,
// Fast-planned placements yield up to about 9% less net energy than
// Full-planned ones (Roof 3 is worst), and absolute MWh differ by the
// sampling density.
//
// # Optimizer strategies
//
// Config.Optimizer selects how the proposed placement is searched
// for: the paper's greedy heuristic (the default), a parallel
// multi-start annealer, or the exact branch-and-bound reference on
// reduced instances. The searches share one objective with
// O(1)-per-move incremental evaluation (see internal/objective);
// multistart then keeps whichever of the greedy seed and its K walks
// has the best evaluated net energy, so it never reports less than
// greedy. All strategies are deterministic — multistart returns a
// bit-identical placement for every Config.Workers value, which also
// bounds its restart pool.
//
//	res, _ := pvfloor.Run(pvfloor.Config{
//	    Scenario:  sc,
//	    Modules:   32,
//	    Optimizer: pvfloor.OptimizerConfig{Strategy: pvfloor.StrategyMultiStart, Restarts: 8},
//	})
//
// # Concurrency
//
// The solar-field engine underneath Run is parallel by default and
// deterministic for every worker count (see internal/solar/field).
// Config.Workers bounds its worker pool, which also marches the
// roof's horizon map, and the planning branch: unless Workers is 1,
// the traditional baseline is planned and evaluated on its own
// goroutine while the proposed placement is searched. 0 uses one
// worker per CPU, 1 forces the serial reference path — useful when
// embedding runs in an outer parallel harness. For simulating fleets
// of roofs, prefer RunBatch (or the cmd/pvbatch tool) over looping on
// Run: it fans whole scenarios out concurrently and amortises both
// field construction and the statistics pass across the config
// variants of each roof (within a batch, the shared engine runs with
// BatchOptions.FieldWorkers rather than per-run Workers — a shared
// field cannot honour conflicting per-run settings).
//
// For long-lived callers — services, pipelines, TUIs — RunBatch and
// RunDistrict accept a context (cancellation stops the fan-out
// between runs; the physics is never interrupted mid-run) and a
// progress callback delivering per-run completions and per-roof
// district milestones as they happen. Both hooks are observational:
// results are bit-identical with or without them. The cmd/pvserve
// tool builds the streaming HTTP front-end on exactly these hooks.
//
// Lower-level building blocks live in internal/ packages; everything
// needed to reproduce the paper's tables and figures is reachable
// from this package, the examples/ programs and the cmd/ tools.
package pvfloor

import (
	"fmt"
	"sync"

	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/optimize"
	"repro/internal/pvmodel"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/timegrid"
	"repro/internal/wiring"
)

// Re-exported scenario constructors (the paper's §V-A roofs plus the
// residential title scenario).
var (
	Roof1       = scenario.Roof1
	Roof2       = scenario.Roof2
	Roof3       = scenario.Roof3
	Residential = scenario.Residential
	AllRoofs    = scenario.All
)

// Fidelity selects the simulation accuracy/runtime trade-off.
type Fidelity int

const (
	// Fast uses the reduced calendar (hourly, ~monthly day stride)
	// and coarse horizon maps: well under a second per roof, suitable
	// for tests and exploration.
	Fast Fidelity = iota
	// Full uses the paper's setup: a full year at 15-minute steps
	// and fine horizon maps: seconds per roof.
	Full
)

// Config parameterises one end-to-end pipeline run.
type Config struct {
	// Scenario is the roof to plan on (required).
	Scenario *scenario.Scenario
	// Label optionally names the run in batch results and reports
	// (RunBatch derives "Roof 2/N=32"-style names when empty).
	Label string
	// Modules is the number of PV modules N (a positive multiple of
	// the paper's string length 8).
	Modules int
	// Fidelity selects Fast (default) or Full simulation.
	Fidelity Fidelity
	// Optimizer selects the placement-search strategy for the
	// proposed placement (zero value = the paper's greedy heuristic).
	// See OptimizerConfig and the Strategy constants.
	Optimizer OptimizerConfig
	// SkipBaseline skips the compact reference (saves its sweep when
	// only the proposed placement is wanted).
	SkipBaseline bool
	// Workers bounds the concurrency of this run — the roof's horizon
	// march, the sky precompute, the statistics pass, the multistart
	// restart pool and the planning branch: 0 = one worker per CPU,
	// 1 = serial reference path. Unless Workers is 1, the traditional
	// baseline is planned and evaluated on one goroutine of its own
	// beside the proposed placement search (with the multistart
	// strategy, one goroutine more than the restart pool's Workers).
	// Results are identical for every value (see the package
	// documentation's Concurrency section). Within RunBatch, shared
	// field groups use BatchOptions.FieldWorkers instead.
	Workers int
	// Cache, when non-nil, enables the persistent field-artifact
	// cache (open one with OpenCache): horizon maps and per-cell
	// statistics are stored keyed by a fingerprint of everything they
	// depend on (DSM content, roof region, horizon options, calendar,
	// site, turbidity, weather realisation, statistics config), so
	// repeated runs over unchanged roofs — across processes, not just
	// within one — skip horizon construction and the statistics pass.
	// Cached results are bit-identical to cold computation; corrupt
	// entries are detected and recomputed. Pass one handle to every
	// run so hit/miss metrics aggregate in one place and a configured
	// remote blob tier is shared; concurrent runs and processes may
	// share one directory.
	Cache *fieldcache.Cache
}

// OpenCache creates (if needed) and opens a persistent field-artifact
// cache in dir, for Config.Cache, DistrictConfig.Cache and
// CityConfig.Cache. Open it once per process and hand the one handle
// to every run.
func OpenCache(dir string) (*fieldcache.Cache, error) {
	return fieldcache.Open(dir)
}

// effectiveGrid returns the simulation calendar of the config's
// Fidelity.
func (cfg Config) effectiveGrid() *timegrid.Grid {
	switch cfg.Fidelity {
	case Full:
		return scenario.FullYearGrid()
	default:
		return scenario.FastGrid()
	}
}

// fieldConfig assembles the solar-field build for the config's
// scenario at its fidelity, on workers field workers.
func (cfg Config) fieldConfig(workers int) scenario.FieldConfig {
	return scenario.FieldConfig{
		Grid:    cfg.effectiveGrid(),
		Fast:    cfg.Fidelity != Full,
		Workers: workers,
		Cache:   cfg.Cache,
	}
}

// horizonOptions returns the horizon-map options of the fidelity.
func (f Fidelity) horizonOptions() horizon.Options {
	return scenario.HorizonOptions(f != Full)
}

// Result carries every artifact of a pipeline run.
type Result struct {
	// Scenario echoes the input.
	Scenario *scenario.Scenario
	// Evaluator is the constructed solar field (reusable for custom
	// evaluations).
	Evaluator *field.Evaluator
	// Stats are the per-cell trace statistics.
	Stats *field.CellStats
	// Suitability is the ranking matrix derived from Stats.
	Suitability *floorplan.Suitability
	// Proposed is the paper's greedy sparse placement.
	Proposed *floorplan.Placement
	// Traditional is the compact baseline (nil with SkipBaseline).
	Traditional *floorplan.Placement
	// ProposedEval / TraditionalEval are the yearly energy reports.
	ProposedEval    floorplan.Evaluation
	TraditionalEval floorplan.Evaluation
}

// ImprovementPct returns the net-energy gain of the proposed
// placement over the traditional baseline, in percent.
func (r *Result) ImprovementPct() float64 {
	t := r.TraditionalEval.NetMWh()
	if t == 0 {
		return 0
	}
	return (r.ProposedEval.NetMWh() - t) / t * 100
}

// TableIRow formats the run as one row of the paper's Table I.
func (r *Result) TableIRow() report.TableIRow {
	return report.TableIRow{
		Roof:           r.Scenario.Name,
		W:              r.Scenario.Suitable.W(),
		L:              r.Scenario.Suitable.H(),
		Ng:             r.Scenario.Ng(),
		N:              r.Proposed.Topology.Modules(),
		TraditionalMWh: r.TraditionalEval.NetMWh(),
		ProposedMWh:    r.ProposedEval.NetMWh(),
		WiringExtraM:   r.ProposedEval.WiringExtraM,
	}
}

// ProposedMap renders the proposed placement as ASCII art in the
// style of the paper's Fig. 7(d-f).
func (r *Result) ProposedMap(maxCols int) string {
	return render.PlacementASCII(r.Scenario.Suitable, r.Proposed, maxCols)
}

// TraditionalMap renders the baseline placement (Fig. 7(a-c)).
func (r *Result) TraditionalMap(maxCols int) string {
	return render.PlacementASCII(r.Scenario.Suitable, r.Traditional, maxCols)
}

// SuitabilityMap renders the suitability matrix as ASCII art in the
// style of the paper's Fig. 6(b).
func (r *Result) SuitabilityMap(maxCols int) string {
	return render.HeatmapASCII(render.Field{
		W: r.Suitability.W, H: r.Suitability.H,
		At: r.Suitability.At,
	}, maxCols)
}

// Run executes the full pipeline.
func Run(cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("pvfloor: nil scenario")
	}
	ev, err := cfg.Scenario.FieldWith(cfg.fieldConfig(cfg.Workers))
	if err != nil {
		return nil, err
	}
	return RunWithField(cfg, ev)
}

// RunWithField executes the planning and evaluation stages against an
// already-built solar field (letting callers amortise field
// construction across many planning runs). It plans with the paper's
// setup: the p75 temperature-corrected suitability, the scenario's
// module footprint in strings of 8, the PV-MF165EB3 module and AWG 10
// cable. Unless cfg.Workers is 1, the traditional baseline is planned
// and evaluated on its own goroutine beside the proposed placement
// search, with an identical result; the call returns only once both
// are done, and when both fail it reports the proposed placement's
// error.
func RunWithField(cfg Config, ev *field.Evaluator) (*Result, error) {
	if cfg.Scenario == nil || ev == nil {
		return nil, fmt.Errorf("pvfloor: nil scenario or field")
	}
	// The statistics depend only on the field, so runs sharing one
	// evaluator (a module-count sweep, a batch group) share the
	// memoized pass instead of recomputing it per variant.
	cs, err := ev.CachedStats()
	if err != nil {
		return nil, err
	}
	suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
	if err != nil {
		return nil, err
	}
	topo, err := scenario.Topology(cfg.Modules)
	if err != nil {
		return nil, err
	}
	planOpts := floorplan.Options{Shape: cfg.Scenario.Shape, Topology: topo}
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)

	res := &Result{
		Scenario:    cfg.Scenario,
		Evaluator:   ev,
		Stats:       cs,
		Suitability: suit,
	}
	placer, err := cfg.Optimizer.placer(cfg.Workers)
	if err != nil {
		return nil, err
	}
	// The baseline does not depend on the proposed placement, and both
	// branches only read the suitability, the mask and the immutable
	// field, so they may run side by side.
	var baseErr error
	baseline := func() {
		res.Traditional, baseErr = floorplan.PlanCompact(suit, cfg.Scenario.Suitable, planOpts)
		if baseErr != nil {
			baseErr = fmt.Errorf("pvfloor: traditional placement: %w", baseErr)
			return
		}
		res.TraditionalEval, baseErr = floorplan.Evaluate(ev, mod, res.Traditional, spec)
	}
	concurrent := !cfg.SkipBaseline && cfg.Workers != 1
	var wg sync.WaitGroup
	if concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			baseline()
		}()
	}
	res.Proposed, res.ProposedEval, err = placer.Place(optimize.Problem{
		Suit: suit,
		Mask: cfg.Scenario.Suitable,
		Opts: planOpts,
		Spec: spec,
		Yield: func(pl *floorplan.Placement) (floorplan.Evaluation, error) {
			return floorplan.Evaluate(ev, mod, pl, spec)
		},
	})
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("pvfloor: proposed placement (%s): %w", placer.Name(), err)
	}
	if !cfg.SkipBaseline && !concurrent {
		baseline()
	}
	if baseErr != nil {
		return nil, baseErr
	}
	return res, nil
}
