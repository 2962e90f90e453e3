package main

import (
	"fmt"

	pvfloor "repro"
	"repro/internal/scenario"
	"repro/internal/solar/horizon"
)

// table1 is the paper's Table I path: one pvfloor.Run per operation on
// Roof 1–3 with N = 16 or 32 modules, in a seeded order, without the
// artifact cache. Nearly all of its time is the horizon march and the
// solar-field statistics, so it moves with those layers and is blind
// to the cache, district extraction and the raster reader.
type table1 struct {
	e     *env
	cases []table1Case
	order []int
}

type table1Case struct {
	sc      *scenario.Scenario
	modules int
	want    string // roofDigest of the serial reference
}

func setupTable1(e *env) (workload, error) {
	roofs, err := pvfloor.AllRoofs()
	if err != nil {
		return nil, err
	}
	w := &table1{e: e}
	var cfgs []pvfloor.Config
	for _, sc := range roofs {
		for _, n := range []int{16, 32} {
			w.cases = append(w.cases, table1Case{sc: sc, modules: n})
			cfgs = append(cfgs, pvfloor.Config{Scenario: sc, Modules: n})
		}
	}
	// Serial reference: one field per roof, no worker pools.
	runs, err := pvfloor.RunBatch(cfgs, pvfloor.BatchOptions{Concurrency: 1, FieldWorkers: 1})
	if err != nil {
		return nil, err
	}
	for i, br := range runs {
		if br.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", br.Name, br.Err)
		}
		w.cases[i].want = roofDigest(br.Result)
	}
	w.order = cycleOrder(rng(e.seed, streamOrder), len(w.cases), 10000)
	return w, nil
}

func (w *table1) kind(i int) string {
	c := w.cases[w.order[i%len(w.order)]]
	return fmt.Sprintf("%s/N=%d", c.sc.Name, c.modules)
}

func (w *table1) op(i int, oc *opCtx) error {
	c := w.cases[w.order[i%len(w.order)]]
	var res *pvfloor.Result
	var err error
	if oc.tr == nil {
		res, err = pvfloor.Run(pvfloor.Config{Scenario: c.sc, Modules: c.modules, Workers: w.e.nproc})
	} else {
		res, err = w.staged(oc, c)
	}
	if err != nil {
		return err
	}
	if got := roofDigest(res); got != c.want {
		return fmt.Errorf("output differs from the serial reference")
	}
	return nil
}

// staged is pvfloor.Run as stage calls: the horizon march, handed to
// the field as a shared horizon, then the field and planning stages.
func (w *table1) staged(oc *opCtx, c table1Case) (*pvfloor.Result, error) {
	sc := *c.sc
	if err := oc.timed("horizon.march", 0, func(int64) (err error) {
		sc.SharedHorizon, err = horizon.Build(sc.Scene.Raster, sc.Scene.RoofRect, scenario.FastHorizonOptions())
		return err
	}); err != nil {
		return nil, err
	}
	oc.count("horizon.marches", 1)
	oc.count("field.stats_passes", 1)
	res, _, err := stagedRoof(oc, 0, &sc, c.modules, w.e.nproc, nil, false)
	return res, err
}

func (w *table1) layers(tr *tracer, ops int, m metricSet) {
	self := tr.selfTimes()
	perOp(m, self, ops, "horizon.march_ms", "horizon.march")
	perOp(m, self, ops, "field.sky_ms", "field.sky")
	perOp(m, self, ops, "field.stats_ms", "field.stats")
	perOp(m, self, ops, "floorplan.suitability_ms", "floorplan.suitability")
	perOp(m, self, ops, "floorplan.place_ms", "floorplan.place")
	perOp(m, self, ops, "floorplan.evaluate_ms", "floorplan.evaluate")
	m.set("horizon.marches_per_op", tr.counter("horizon.marches")/float64(ops))
	m.set("field.stats_passes_per_op", tr.counter("field.stats_passes")/float64(ops))
}

func (w *table1) close() {}
