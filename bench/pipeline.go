package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/pvmodel"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/wiring"
)

// Traced operations run the pipeline as a sequence of public stage
// calls, so each stage gets its own span. The stage sequence mirrors
// pvfloor.Run and pvfloor.RunDistrict; every traced output is checked
// against the same reference as the untraced calls, so a drift between
// the two paths fails the run instead of silently timing other work.

// roofDigest pins one roof run: both placements' anchors and the exact
// bits of both net energies.
func roofDigest(res *pvfloor.Result) string {
	var b strings.Builder
	for _, c := range res.Proposed.Anchors() {
		fmt.Fprintf(&b, "%d,%d;", c.X, c.Y)
	}
	b.WriteString("|")
	if res.Traditional != nil {
		for _, c := range res.Traditional.Anchors() {
			fmt.Fprintf(&b, "%d,%d;", c.X, c.Y)
		}
	}
	fmt.Fprintf(&b, "|%x|%x|%s", math.Float64bits(res.ProposedEval.NetMWh()),
		math.Float64bits(res.TraditionalEval.NetMWh()), pvfloor.GPctDigest(res.Stats))
	return b.String()
}

// stagedRoof runs one roof the way pvfloor.RunWithField does, from
// field construction on, with a span per stage under parent. It
// replans with one 8-module string fewer while the placement runs out
// of space, as pvfloor.RunDistrict's retry does; modules reports the
// count that was finally planned.
func stagedRoof(oc *opCtx, parent int64, sc *scenario.Scenario, n, workers int, cache *fieldcache.Cache, shrink bool) (res *pvfloor.Result, modules int, err error) {
	var ev *field.Evaluator
	if err := oc.timed("field.sky", parent, func(int64) error {
		ev, err = sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true, Workers: workers, Cache: cache})
		return err
	}); err != nil {
		return nil, n, err
	}
	var cs *field.CellStats
	if err := oc.timed("field.stats", parent, func(int64) error {
		cs, err = ev.CachedStats()
		return err
	}); err != nil {
		return nil, n, err
	}
	var suit *floorplan.Suitability
	if err := oc.timed("floorplan.suitability", parent, func(int64) error {
		suit, err = floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
		return err
	}); err != nil {
		return nil, n, err
	}
	for {
		res, err = planRoof(oc, parent, sc, n, ev, cs, suit)
		var noSpace *floorplan.ErrNoSpace
		if !shrink || n <= 8 || !errors.As(err, &noSpace) {
			return res, n, err
		}
		n -= 8
	}
}

// planRoof places and evaluates n modules on a built field.
func planRoof(oc *opCtx, parent int64, sc *scenario.Scenario, n int, ev *field.Evaluator, cs *field.CellStats, suit *floorplan.Suitability) (*pvfloor.Result, error) {
	topo, err := scenario.Topology(n)
	if err != nil {
		return nil, err
	}
	opts := floorplan.Options{Shape: sc.Shape, Topology: topo}
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	res := &pvfloor.Result{Scenario: sc, Evaluator: ev, Stats: cs, Suitability: suit}
	if err := oc.timed("floorplan.place", parent, func(int64) error {
		res.Proposed, err = floorplan.Plan(suit, sc.Suitable, opts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pvfloor: proposed placement (greedy): %w", err)
	}
	if err := oc.timed("floorplan.evaluate", parent, func(int64) error {
		res.ProposedEval, err = floorplan.Evaluate(ev, mod, res.Proposed, spec)
		return err
	}); err != nil {
		return nil, err
	}
	if err := oc.timed("floorplan.place", parent, func(int64) error {
		res.Traditional, err = floorplan.PlanCompact(suit, sc.Suitable, opts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pvfloor: traditional placement: %w", err)
	}
	if err := oc.timed("floorplan.evaluate", parent, func(int64) error {
		res.TraditionalEval, err = floorplan.Evaluate(ev, mod, res.Traditional, spec)
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// autoModules sizes a district roof like pvfloor.RunDistrict with the
// default cap of 32: the largest multiple of 8 whose footprint fits 80%
// of the suitable cells.
func autoModules(sc *scenario.Scenario) int {
	const maxModules = 32
	area := sc.Shape.W * sc.Shape.H
	if area <= 0 {
		return 0
	}
	n := sc.Ng() * 4 / 5 / area
	n -= n % 8
	if n == 0 && sc.Ng() >= 8*area {
		n = 8
	}
	return min(n, maxModules)
}

// districtStats reports what the artifact cache did for one staged
// district run.
type districtStats struct {
	horizonHit bool
	roofs      int // roofs whose field was built
}

// stagedDistrict runs pvfloor.RunDistrict's stages (default options,
// Fast fidelity) over tile: extraction, the tile-level horizon, then
// every roof on workers concurrent goroutines.
func stagedDistrict(oc *opCtx, tile *dsm.Raster, workers int, cache *fieldcache.Cache) (*pvfloor.DistrictResult, districtStats, error) {
	var st districtStats
	var ex *district.Extraction
	var scs []*scenario.Scenario
	if err := oc.timed("district.extract", 0, func(int64) (err error) {
		if ex, err = district.Extract(tile, nil, district.Options{}); err != nil {
			return err
		}
		scs, err = ex.Scenarios(tile, district.SiteConfig{})
		return err
	}); err != nil {
		return nil, st, err
	}
	if len(ex.Roofs) > 0 {
		rects := make([]geom.Rect, len(ex.Roofs))
		for i := range ex.Roofs {
			rects[i] = ex.Roofs[i].Rect
		}
		start := time.Now()
		th, hit, err := field.TileHorizon(tile, rects, scenario.FastHorizonOptions(), workers, cache)
		if err != nil {
			return nil, st, err
		}
		name := "horizon.march"
		if hit {
			name = "horizon.restore"
		}
		oc.record(span{Parent: oc.id, Name: name}, start, time.Now())
		st.horizonHit = hit
		for _, sc := range scs {
			sc.SharedHorizon = th
		}
	}

	res := &pvfloor.DistrictResult{Extraction: ex, Plans: make([]pvfloor.RoofPlan, len(ex.Roofs))}
	var todo []int
	for i := range ex.Roofs {
		rp := &res.Plans[i]
		rp.Roof, rp.Scenario = ex.Roofs[i], scs[i]
		n := autoModules(rp.Scenario)
		if n < 8 {
			rp.Skipped = fmt.Sprintf("suitable area %d cells too small for one 8-module string", rp.Scenario.Ng())
			continue
		}
		rp.Modules = n
		todo = append(todo, i)
	}
	st.roofs = len(todo)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rp := &res.Plans[i]
				_ = oc.timed("roof", 0, func(id int64) error {
					r, n, err := stagedRoof(oc, id, rp.Scenario, rp.Modules, workers, cache, true)
					rp.Modules = n
					cfg := pvfloor.Config{Scenario: rp.Scenario, Modules: n}
					rp.Run = pvfloor.BatchRun{Index: i, Name: cfg.Name(), Config: cfg, Result: r, Err: err}
					return nil
				})
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()

	for i := range res.Plans {
		rp := &res.Plans[i]
		if !rp.Planned() {
			continue
		}
		res.Ranked = append(res.Ranked, i)
		res.TotalProposedMWh += rp.Run.Result.ProposedEval.NetMWh()
		res.TotalTraditionalMWh += rp.Run.Result.TraditionalEval.NetMWh()
		res.TotalWiringExtraM += rp.Run.Result.ProposedEval.WiringExtraM
	}
	sort.SliceStable(res.Ranked, func(a, b int) bool {
		ea := res.Plans[res.Ranked[a]].Run.Result.ProposedEval.NetMWh()
		eb := res.Plans[res.Ranked[b]].Run.Result.ProposedEval.NetMWh()
		if ea != eb {
			return ea > eb
		}
		return res.Ranked[a] < res.Ranked[b]
	})
	return res, st, nil
}

// encodeDistrict is the district report as every surface emits it.
func encodeDistrict(oc *opCtx, res *pvfloor.DistrictResult) ([]byte, error) {
	var out []byte
	err := oc.timed("pvfloor.encode", 0, func(int64) (err error) {
		out, err = json.Marshal(pvfloor.NewDistrictReport(res))
		return err
	})
	return out, err
}
