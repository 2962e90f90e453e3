package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	pvfloor "repro"
	"repro/internal/dsm"
	"repro/internal/faultfs"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/gis"
)

// city is the out-of-core re-sweep: each operation opens a seeded
// gzipped city raster through gis.OpenWindowed with a 1 MiB block
// budget (so blocks are evicted and decoded again), runs pvfloor.RunCity
// over 160-cell tiles with a warm artifact cache and the economics pass
// ranking by NPV under a budget, then marshals the city report. It is
// the only workload where window decoding, seam stitching and the
// economics pass run, so it moves with the raster reader (gis) and the
// live heap.
type city struct {
	e     *env
	path  string
	cache *fieldcache.Cache
	want  []byte
}

const (
	cityTileCells   = 160
	cityHaloCells   = 40
	cityWindowBytes = 1 << 20
	cityBudgetUSD   = 150000
)

// cityConfig is the run configuration shared by the reference and the
// measured operations.
func cityConfig(src pvfloor.CitySource, workers int, cache *fieldcache.Cache) pvfloor.CityConfig {
	return pvfloor.CityConfig{
		Source: src, TileCells: cityTileCells, HaloCells: cityHaloCells,
		Cache: cache, Concurrency: workers, FieldWorkers: workers,
		Economics: pvfloor.EconConfig{Enabled: true, RankBy: pvfloor.RankByNPV, BudgetUSD: cityBudgetUSD},
	}
}

// writeCity materialises the seed's city raster as a gzipped ASC file.
func writeCity(e *env, dir string) (string, *dsm.Raster, error) {
	raster := makeCity(e.blocks, makeCitySpec(e.seed))
	data, err := ascBytes(raster, true)
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "city.asc.gz")
	return path, raster, os.WriteFile(path, data, 0o644)
}

// cityReference runs the serial, uncached city sweep of path.
func cityReference(path string) ([]byte, error) {
	wr, err := gis.OpenWindowed(path, gis.WindowOptions{})
	if err != nil {
		return nil, err
	}
	defer wr.Close()
	res, err := pvfloor.RunCity(cityConfig(wr, 1, nil))
	if err != nil {
		return nil, err
	}
	return json.Marshal(pvfloor.NewCityReport(res))
}

func setupCity(e *env) (workload, error) {
	w := &city{e: e}
	var err error
	if w.path, _, err = writeCity(e, e.work); err != nil {
		return nil, err
	}
	if w.want, err = cityReference(w.path); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	w.cache, err = fieldcache.OpenTiered(fieldcache.Config{
		Dir: filepath.Join(e.work, "cache"), FS: timingFS{FS: faultfs.OS(), countStores: true},
	})
	if err != nil {
		return nil, err
	}
	if err := w.op(0, nil); err != nil {
		return nil, fmt.Errorf("warming the cache: %w", err)
	}
	return w, nil
}

func (w *city) kind(int) string { return "city" }

func (w *city) op(_ int, oc *opCtx) error {
	traced := oc != nil && oc.tr != nil
	var wr *gis.WindowedReader
	if err := oc.timed("gis.open", 0, func(int64) (err error) {
		wr, err = gis.OpenWindowed(w.path, gis.WindowOptions{CacheBytes: cityWindowBytes})
		return err
	}); err != nil {
		return err
	}
	defer wr.Close()
	cfg := cityConfig(wr, w.e.nproc, w.cache)
	var before fieldcache.Metrics
	var prog *cityProgress
	if traced {
		before = w.cache.Metrics()
		prog = &cityProgress{oc: oc, started: map[int]tileSpan{}}
		cfg.Source = &tileSource{CitySource: wr, p: prog}
		cfg.Progress = prog.event
	}
	res, err := pvfloor.RunCity(cfg)
	if err != nil {
		return err
	}
	if traced {
		oc.record(span{Parent: oc.id, Name: "pvfloor.stitch_econ"}, prog.lastFinish, time.Now())
	}
	var got []byte
	if err := oc.timed("pvfloor.encode", 0, func(int64) (err error) {
		got, err = json.Marshal(pvfloor.NewCityReport(res))
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(got, w.want) {
		return fmt.Errorf("city report differs from the serial reference")
	}
	if traced {
		st := wr.Stats()
		oc.count("gis.block_hits", float64(st.Hits))
		oc.count("gis.block_lookups", float64(st.Hits+st.Misses))
		oc.count("gis.evictions", float64(st.Evictions))
		countCache(oc, before, w.cache.Metrics())
	}
	return nil
}

// cityProgress turns RunCity's progress events into spans: one per work
// tile (its self time is the tile's preparation: extraction, scenarios
// and the tile horizon), window decodes and roof runs under it, and the
// stitch plus economics pass from the last tile to RunCity's return.
// Tiles run one at a time (TileWorkers 1), so the open tile is the
// parent of every window decode.
type cityProgress struct {
	oc         *opCtx
	mu         sync.Mutex
	started    map[int]tileSpan
	open       atomic.Int64 // span ID of the tile being prepared
	lastFinish time.Time
}

type tileSpan struct {
	id    int64
	start time.Time
}

func (p *cityProgress) event(ev pvfloor.CityEvent) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case pvfloor.CityTileStarted:
		ts := tileSpan{id: p.oc.tr.next.Add(1), start: now}
		p.started[ev.Tile] = ts
		p.open.Store(ts.id)
	case pvfloor.CityTileFinished:
		ts := p.started[ev.Tile]
		p.oc.record(span{ID: ts.id, Parent: p.oc.id, Name: "pvfloor.tile_prep"}, ts.start, now)
		p.lastFinish = now
	case pvfloor.DistrictRoofPlanned:
		ts := p.started[ev.Tile]
		p.oc.record(span{Parent: ts.id, Name: "pvfloor.roof_run"}, now.Add(-ev.Run.Elapsed), now)
	}
}

// tileSource times window decodes under the open tile's span.
type tileSource struct {
	pvfloor.CitySource
	p *cityProgress
}

func (s *tileSource) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	start := time.Now()
	r, m, err := s.CitySource.Window(rect)
	s.p.oc.record(span{Parent: s.p.open.Load(), Name: "gis.window"}, start, time.Now())
	s.p.oc.count("gis.window_calls", 1)
	return r, m, err
}

func (w *city) layers(tr *tracer, ops int, m metricSet) {
	self := tr.selfTimes()
	for name, spanName := range map[string]string{
		"gis.open_ms":              "gis.open",
		"gis.window_ms":            "gis.window",
		"pvfloor.tile_prep_ms":     "pvfloor.tile_prep",
		"pvfloor.roof_run_ms":      "pvfloor.roof_run",
		"pvfloor.stitch_econ_ms":   "pvfloor.stitch_econ",
		"pvfloor.encode_ms":        "pvfloor.encode",
		"blobstore.local.read_ms":  "blobstore.local.read",
		"blobstore.local.write_ms": "blobstore.local.write",
	} {
		perOp(m, self, ops, name, spanName)
	}
	n := float64(ops)
	m.set("gis.window_calls_per_op", tr.counter("gis.window_calls")/n)
	m.set("gis.evictions_per_op", tr.counter("gis.evictions")/n)
	if l := tr.counter("gis.block_lookups"); l > 0 {
		m.set("gis.block_hit_ratio", tr.counter("gis.block_hits")/l)
	}
	cacheLayers(tr, ops, m)
}

func (w *city) close() {}
