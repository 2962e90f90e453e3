package pvfloor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/solar/field"
)

// DistrictConfig parameterises one whole-tile district run: automatic
// roof extraction over a DSM tile followed by a batched floorplanning
// sweep across every extracted roof.
type DistrictConfig struct {
	// Tile is the DSM raster to sweep (required).
	Tile *dsm.Raster
	// NoData optionally marks missing tile cells (same dims as Tile).
	NoData *geom.Mask
	// Extract tunes the roof extraction (zero value = defaults).
	Extract district.Options
	// Site carries the geography, climate and module geometry shared
	// by all roofs (zero value = the paper's Turin setup).
	Site district.SiteConfig
	// Modules fixes the module count per roof. 0 auto-sizes each roof
	// from its suitable area (see MaxModules).
	Modules int
	// MaxModules caps the auto-sized count (0 = 32). Ignored when
	// Modules is set.
	MaxModules int
	// Fidelity selects Fast (default) or Full simulation.
	Fidelity Fidelity
	// Optimizer selects the placement-search strategy for every roof.
	Optimizer OptimizerConfig
	// SkipBaseline skips the compact reference placements.
	SkipBaseline bool
	// Cache, when non-nil, enables the persistent field-artifact
	// cache (see OpenCache). At district scale this is the difference
	// between re-simulating the whole neighborhood and re-reading it:
	// roofs are keyed by tile content + roof rect, so an unchanged
	// tile re-runs warm. The one handle serves the tile horizon and
	// every roof's field, so its metrics cover the whole run.
	Cache *fieldcache.Cache
	// Economics switches the run into economics-aware fleet ranking:
	// every planned roof is priced through internal/econ over the
	// panel catalog, and ranking/totals follow the configured
	// objective and budget (see EconConfig). The zero value disables
	// the pass — results are then byte-identical to an economics-free
	// run, as is Economics.RankBy == RankByEnergy without a budget.
	Economics EconConfig
	// Concurrency bounds how many roof runs execute simultaneously
	// (0 = one per CPU; the RunBatch pool).
	Concurrency int
	// FieldWorkers bounds each roof's solar-field worker pool and
	// multistart restart pool, and the tile's shared horizon march
	// (0 = one per CPU). Results are identical for every value.
	FieldWorkers int
	// Context, when non-nil, bounds the run: once cancelled, no
	// further roof starts (in-flight roofs finish — a run is never
	// interrupted mid-physics) and RunDistrict returns Context.Err().
	Context context.Context
	// Progress, when non-nil, receives a DistrictEvent per pipeline
	// milestone: one DistrictRoofExtracted per roof right after
	// extraction, then one DistrictRoofPlanned per roof as its batch
	// run completes (after any shrink retries). Planned events come
	// concurrently from the batch pool, in completion order — the
	// callback must be safe for concurrent use. Events never change
	// the result: a run with a nil Progress is bit-identical.
	Progress func(DistrictEvent)
}

// DistrictEventKind names a district progress milestone.
type DistrictEventKind string

const (
	// DistrictRoofExtracted fires once per extracted roof, in roof-ID
	// order, before any simulation starts. Run is zero-valued.
	DistrictRoofExtracted DistrictEventKind = "roof-extracted"
	// DistrictRoofPlanned fires once per roof whose batch run
	// finished (successfully or not), carrying the final BatchRun —
	// for roofs that ran out of space, the post-shrink-retry outcome.
	// Roofs skipped before simulation (see RoofPlan.Skipped) never
	// fire it.
	DistrictRoofPlanned DistrictEventKind = "roof-planned"
)

// DistrictEvent is one progress milestone of RunDistrict, delivered
// through DistrictConfig.Progress while the run executes.
type DistrictEvent struct {
	// Kind says which milestone this is.
	Kind DistrictEventKind
	// Index locates the roof in DistrictResult.Plans (and
	// Extraction.Roofs — they share order).
	Index int
	// Roof is the extraction outcome for that roof.
	Roof district.Roof
	// Modules is the module count attempted (planned events; the
	// final count after shrink retries).
	Modules int
	// Skipped mirrors RoofPlan.Skipped for extracted events whose
	// roof will never run ("" otherwise).
	Skipped string
	// Run is the completed batch outcome (planned events only).
	Run BatchRun
}

// RoofPlan is the per-roof outcome of a district run.
type RoofPlan struct {
	// Roof is the extraction result.
	Roof district.Roof
	// Scenario is the derived planning scenario (nil when conversion
	// failed — see Skipped).
	Scenario *scenario.Scenario
	// Modules is the module count actually planned (after auto-sizing
	// and any no-space shrinking); 0 when skipped.
	Modules int
	// Run is the batch outcome (zero-valued when Skipped is set).
	Run BatchRun
	// Skipped explains why the roof was never run ("" = it ran;
	// Run.Err still reports runtime failures).
	Skipped string
	// Restored, when non-nil, marks a plan replayed from a persisted
	// checkpoint record instead of a live run: Run and Scenario are
	// zero-valued and every report surface reads Outcome() instead.
	Restored *PlanOutcome
	// Econ carries the roof's economics report when the run's
	// economics pass is enabled (nil otherwise).
	Econ *EconReport
}

// PlanOutcome is the flattened, persistable outcome of one roof plan —
// exactly the numbers the tables, reports and rankings read. Live
// plans derive it from Run; checkpoint records persist it as JSON
// (float64 round-trips bit-exactly), so a restored plan reports
// byte-identically to the live run it replays.
type PlanOutcome struct {
	Planned        bool    `json:"planned"`
	RunName        string  `json:"run_name,omitempty"`
	RunErr         string  `json:"run_err,omitempty"`
	ProposedMWh    float64 `json:"proposed_mwh,omitempty"`
	TraditionalMWh float64 `json:"traditional_mwh,omitempty"`
	GainPct        float64 `json:"gain_pct,omitempty"`
	WiringExtraM   float64 `json:"wiring_extra_m,omitempty"`
}

// Planned reports whether the roof produced a successful plan.
func (rp *RoofPlan) Planned() bool {
	if rp.Restored != nil {
		return rp.Restored.Planned
	}
	return rp.Skipped == "" && rp.Run.Err == nil && rp.Run.Result != nil
}

// Outcome flattens the plan for reporting: the restored record when
// the plan was replayed from a checkpoint, the live Run otherwise.
func (rp *RoofPlan) Outcome() PlanOutcome {
	if rp.Restored != nil {
		return *rp.Restored
	}
	o := PlanOutcome{RunName: rp.Run.Name}
	if rp.Run.Err != nil {
		o.RunErr = rp.Run.Err.Error()
	}
	if rp.Planned() {
		r := rp.Run.Result
		o.Planned = true
		o.ProposedMWh = r.ProposedEval.NetMWh()
		o.TraditionalMWh = r.TraditionalEval.NetMWh()
		o.GainPct = r.ImprovementPct()
		o.WiringExtraM = r.ProposedEval.WiringExtraM
	}
	return o
}

// DistrictResult aggregates a district run.
type DistrictResult struct {
	// Extraction is the full roof-extraction outcome, including
	// dropped candidate regions.
	Extraction *district.Extraction
	// Plans holds one entry per extracted roof, in roof-ID order.
	Plans []RoofPlan
	// Fleet ranks and totals Plans.
	Fleet
}

// roofPlans returns a pointer to every plan, in Plans order.
func (dr *DistrictResult) roofPlans() []*RoofPlan {
	plans := make([]*RoofPlan, len(dr.Plans))
	for i := range dr.Plans {
		plans[i] = &dr.Plans[i]
	}
	return plans
}

// RunDistrict executes the district pipeline: extract every roof from
// the tile, derive a scenario per roof, fan the roofs through the
// concurrent batch engine (sharing the artifact cache when Cache is
// set), and rank the outcomes. Roofs whose initial module count finds
// no feasible placement are retried with progressively fewer modules
// (multiples of 8, the paper's string length) before being reported as
// failed.
//
// The result is deterministic for a given tile and config: extraction
// order, auto-sizing, every optimizer strategy and the ranking are all
// independent of Concurrency and FieldWorkers.
func RunDistrict(cfg DistrictConfig) (*DistrictResult, error) {
	if cfg.Tile == nil {
		return nil, fmt.Errorf("pvfloor: district run without a tile")
	}
	if err := validateSweep(cfg.Modules, cfg.MaxModules, cfg.Economics); err != nil {
		return nil, err
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex, err := district.Extract(cfg.Tile, cfg.NoData, cfg.Extract)
	if err != nil {
		return nil, err
	}
	scs, err := ex.Scenarios(cfg.Tile, cfg.Site)
	if err != nil {
		return nil, err
	}
	// Tile-level shared horizon: march the union of the roof rects once
	// and let every roof's evaluator slice its view from the result —
	// bit-identical to the per-roof builds it replaces (the per-cell
	// march depends only on the raster and the cell) and cached as one
	// tile artifact when the cache is enabled, so a warm district run
	// restores a single entry instead of one map per roof.
	if len(ex.Roofs) > 0 {
		rects := make([]geom.Rect, len(ex.Roofs))
		for i := range ex.Roofs {
			rects[i] = ex.Roofs[i].Rect
		}
		tileH, _, err := field.TileHorizon(cfg.Tile, rects, cfg.Fidelity.horizonOptions(), cfg.FieldWorkers, cfg.Cache)
		if err != nil {
			return nil, err
		}
		for _, sc := range scs {
			sc.SharedHorizon = tileH
		}
	}
	res := &DistrictResult{Extraction: ex, Plans: make([]RoofPlan, len(ex.Roofs))}

	// Derive initial module counts.
	var cfgs []Config
	var cfgPlan []int // cfgs[i] plans res.Plans[cfgPlan[i]]
	for i := range ex.Roofs {
		rp := &res.Plans[i]
		rp.Roof = ex.Roofs[i]
		rp.Scenario = scs[i]
		n := cfg.Modules
		if n == 0 {
			n = autoModules(rp.Scenario, cfg.MaxModules)
		}
		if n < 8 {
			rp.Skipped = fmt.Sprintf("suitable area %d cells too small for one 8-module string", rp.Scenario.Ng())
			continue
		}
		rp.Modules = n
		cfgs = append(cfgs, cfg.roofConfig(rp.Scenario, n))
		cfgPlan = append(cfgPlan, i)
	}
	if cfg.Progress != nil {
		for i := range res.Plans {
			rp := &res.Plans[i]
			cfg.Progress(DistrictEvent{
				Kind: DistrictRoofExtracted, Index: i,
				Roof: rp.Roof, Modules: rp.Modules, Skipped: rp.Skipped,
			})
		}
	}

	// One concurrent sweep, then shrink-and-retry the no-space
	// failures. A retry builds the roof's solar field once (the field
	// is independent of the module count) and replans against it with
	// 8 fewer modules per step.
	if len(cfgs) > 0 {
		// A roof whose placement ran out of space gets retried below;
		// its planned event waits for the retry's final outcome.
		willRetry := func(ri int, err error) bool {
			var noSpace *floorplan.ErrNoSpace
			return err != nil && errors.As(err, &noSpace) && res.Plans[cfgPlan[ri]].Modules > 8
		}
		var progress func(BatchRun)
		if cfg.Progress != nil {
			progress = func(br BatchRun) {
				if willRetry(br.Index, br.Err) {
					return
				}
				pi := cfgPlan[br.Index]
				cfg.Progress(DistrictEvent{
					Kind: DistrictRoofPlanned, Index: pi,
					Roof: res.Plans[pi].Roof, Modules: res.Plans[pi].Modules, Run: br,
				})
			}
		}
		runs, err := RunBatch(cfgs, BatchOptions{
			Concurrency:  cfg.Concurrency,
			FieldWorkers: cfg.FieldWorkers,
			Context:      cfg.Context,
			Progress:     progress,
		})
		if err != nil {
			return nil, err
		}
		for ri, br := range runs {
			rp := &res.Plans[cfgPlan[ri]]
			rp.Run = br
			if willRetry(ri, br.Err) {
				// Cancellation skips the retry but the roof still gets
				// its terminal event (with the no-space outcome), so a
				// streaming client can account for every roof.
				if ctx.Err() == nil {
					cfg.retryShrinking(rp)
				}
				if cfg.Progress != nil {
					cfg.Progress(DistrictEvent{
						Kind: DistrictRoofPlanned, Index: cfgPlan[ri],
						Roof: rp.Roof, Modules: rp.Modules, Run: rp.Run,
					})
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	res.Fleet, err = rankFleet(res.roofPlans(), cfg.Economics)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// retryShrinking replans a roof whose placement ran out of space:
// the solar field (independent of the module count) is built once —
// warm when the batch pass populated the artifact cache — and the
// module count drops by one 8-module string per attempt until a
// placement fits or the floor is reached. The final attempt's outcome
// replaces rp.Run.
func (cfg DistrictConfig) retryShrinking(rp *RoofPlan) {
	start := time.Now()
	ev, err := rp.Scenario.FieldWith(cfg.roofConfig(rp.Scenario, rp.Modules).fieldConfig(cfg.FieldWorkers))
	if err != nil {
		rp.Run.Err = fmt.Errorf("pvfloor: district retry (%s): field: %w", rp.Run.Name, err)
		rp.Run.Elapsed += time.Since(start)
		return
	}
	for rp.Modules > 8 {
		rp.Modules -= 8
		c := cfg.roofConfig(rp.Scenario, rp.Modules)
		result, err := RunWithField(c, ev)
		rp.Run.Name = c.Name()
		rp.Run.Config = c
		rp.Run.Result = result
		rp.Run.Err = err
		var noSpace *floorplan.ErrNoSpace
		if err == nil || !errors.As(err, &noSpace) {
			break
		}
	}
	rp.Run.Elapsed += time.Since(start)
}

// roofConfig assembles the per-roof pipeline config of a district run.
func (cfg DistrictConfig) roofConfig(sc *scenario.Scenario, n int) Config {
	return Config{
		Scenario:     sc,
		Modules:      n,
		Fidelity:     cfg.Fidelity,
		Optimizer:    cfg.Optimizer,
		SkipBaseline: cfg.SkipBaseline,
		Workers:      cfg.FieldWorkers,
		Cache:        cfg.Cache,
	}
}

// autoModules sizes a roof's array from its suitable area: the
// largest multiple of 8 whose footprint fits into 80% of the suitable
// cells (the slack absorbs fragmentation), capped at maxModules. A
// roof that clears one 8-module string by raw area but not by the
// slack still starts at 8 — the no-space retry loop is the real
// feasibility check.
func autoModules(sc *scenario.Scenario, maxModules int) int {
	if maxModules <= 0 {
		maxModules = 32
	}
	area := sc.Shape.W * sc.Shape.H
	if area <= 0 {
		return 0
	}
	n := sc.Ng() * 4 / 5 / area
	n -= n % 8
	if n == 0 && sc.Ng() >= 8*area {
		n = 8
	}
	if n > maxModules {
		n = maxModules - maxModules%8
	}
	return n
}

// DistrictTable renders the ranked district report: one row per
// extracted roof (planned roofs best-first, then skipped/failed ones)
// plus aggregate totals — the district-scale analogue of the paper's
// Table I.
func DistrictTable(res *DistrictResult) string {
	return fleetTable(res.roofPlans(), &res.Fleet)
}
