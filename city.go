package pvfloor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/geom"
)

// ErrInterrupted is returned by RunCity when a Drain request stopped
// the run before every tile completed. The checkpoint (when
// configured) holds every tile that finished; re-running with the
// same checkpoint resumes where the run left off.
var ErrInterrupted = errors.New("pvfloor: city run interrupted")

// CitySource serves rectangular windows of a city-scale DSM. The
// windowed ASC reader (gis.WindowedReader) and the in-memory adapter
// (gis.RasterSource) both satisfy it. Window must set the returned
// raster's origin to rect's anchor so metric physics over the window
// is bit-identical to the full grid, and must be safe for concurrent
// use — RunCity's tile workers share one source.
type CitySource interface {
	// Bounds is the full city rectangle in cells.
	Bounds() geom.Rect
	// CellSize is the grid pitch in metres.
	CellSize() float64
	// Window materialises rect (which lies inside Bounds) as a raster
	// plus NODATA mask (nil = full coverage).
	Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error)
}

// CityConfig parameterises a city-scale run: the DSM is partitioned
// into TileCells×TileCells core tiles, each materialised with a halo
// of HaloCells of surrounding context and swept through the district
// pipeline, with seam roofs deduplicated by footprint-centroid
// ownership. Peak memory is O(window × TileWorkers) plus the source's
// cache budget — independent of city size.
type CityConfig struct {
	// Source serves DSM windows (required).
	Source CitySource
	// TileCells is the core tile edge length in cells (default 512).
	TileCells int
	// HaloCells is the overlap margin materialised around each core
	// tile. It must cover the horizon's shadow reach — and the largest
	// building footprint — for tiled results to match a monolithic
	// run. 0 derives it from the run's horizon options (shadow reach /
	// cell size); negative forces no halo.
	HaloCells int
	// TileWorkers bounds how many tiles are in flight at once
	// (default 1: tiles stream sequentially while each tile's roofs
	// plan in parallel via Concurrency, the bounded-memory sweet
	// spot). Raising it overlaps window IO with planning at the cost
	// of proportionally more resident windows.
	TileWorkers int

	// The remaining knobs mirror DistrictConfig and are applied to
	// every tile's district run (see TileConfig).
	Extract      district.Options
	Site         district.SiteConfig
	Modules      int
	MaxModules   int
	Fidelity     Fidelity
	Optimizer    OptimizerConfig
	SkipBaseline bool
	Cache        *fieldcache.Cache
	Concurrency  int
	FieldWorkers int

	// Economics switches the stitched city result into
	// economics-aware fleet ranking (see EconConfig). The pass runs
	// once over the stitched city — never per tile — so a budget cap
	// spans the whole city and checkpoint-restored tiles price
	// identically to live ones.
	Economics EconConfig

	// TileRetries is the number of extra attempts a failed tile gets
	// before it is recorded as failed (0 = one attempt only). Tile
	// failures are isolated: a tile that exhausts its retries is
	// recorded in the result with its error while the rest of the
	// city completes — only cancellation aborts the whole run.
	TileRetries int
	// TileTimeout bounds each tile attempt (0 = unbounded). A
	// timed-out attempt counts against TileRetries.
	TileTimeout time.Duration
	// Backoff is the delay before the first retry, doubling per
	// attempt and capped at 5s (0 = 50ms).
	Backoff time.Duration
	// Checkpoint, when non-nil, makes the run resumable: every
	// terminal tile (planned, skipped or failed) is durably committed
	// before it counts, and a tile that already has a record is
	// replayed from it instead of re-run. A resumed run's stitched
	// result is byte-identical to the uninterrupted run it continues.
	Checkpoint CityCheckpoint
	// Drain, when non-nil, requests a graceful stop once closed: no
	// new tile starts, in-flight tiles finish (and checkpoint), and
	// RunCity returns ErrInterrupted — unless every tile had already
	// been dispatched, in which case the completed result is
	// returned. Context cancellation remains the hard abort.
	Drain <-chan struct{}

	// Context, when non-nil, bounds the run: once cancelled no new
	// tile starts and in-flight tiles stop between roofs.
	Context context.Context
	// Progress, when non-nil, receives CityEvents: tile-started and
	// tile-finished per work tile plus every wrapped DistrictEvent
	// with roof geometry translated to city cells. Retried tiles
	// emit one tile-started per attempt; replayed (checkpointed)
	// tiles emit started+finished with no roof events in between.
	// Tiles run concurrently when TileWorkers > 1, so the callback
	// must be safe for concurrent use. Events never change the
	// result.
	Progress func(CityEvent)
}

// City-level progress milestones, alongside the district roof kinds.
const (
	// CityTileStarted fires when a work tile's window is about to be
	// materialised. Roof fields are zero.
	CityTileStarted DistrictEventKind = "tile-started"
	// CityTileFinished fires when a work tile's district run (or
	// skip) completed. Roof fields are zero.
	CityTileFinished DistrictEventKind = "tile-finished"
)

// CityEvent is one progress milestone of RunCity: either a tile
// lifecycle marker or a district event from inside a tile's run, with
// Roof.Rect translated to city cells (footprint masks stay
// roof-local). Index stays tile-local — final city IDs exist only
// after stitching.
type CityEvent struct {
	// Tile is the work-tile index (row-major over the tile grid);
	// Tiles is the total count.
	Tile, Tiles int
	// Core is the tile's owned region, Window the materialised
	// core+halo rectangle, both in city cells.
	Core, Window geom.Rect
	DistrictEvent
}

// CityTileInfo summarises one work tile of a city run.
type CityTileInfo struct {
	// Index is the row-major tile index.
	Index int
	// Core is the owned region, Window the materialised rectangle.
	Core, Window geom.Rect
	// Skipped explains why the tile never ran ("" = it ran; today
	// only "window entirely NODATA").
	Skipped string
	// GroundZ is the tile's ground estimate (0 when skipped).
	GroundZ float64
	// Roofs counts the owned roofs extracted from this tile.
	Roofs int
	// Attempts counts the attempts the tile took (1 = first try).
	Attempts int
	// Failed records the final error of a tile that exhausted its
	// retries ("" = the tile ran or was skipped). A failed tile owns
	// no roofs; the rest of the city still completes.
	Failed string
}

// CityPlan is one roof's outcome in city coordinates: the embedded
// RoofPlan's Roof.ID/Building are city-wide and Roof.Rect is in city
// cells; Tile says which work tile owned (and planned) it. Run.Name
// and Scenario keep their tile-local labels.
type CityPlan struct {
	RoofPlan
	Tile int
}

// CityResult aggregates a city run.
type CityResult struct {
	// Bounds echoes the city rectangle, CellSizeM the pitch.
	Bounds    geom.Rect
	CellSizeM float64
	// TileCells and HaloCells echo the resolved partitioning.
	TileCells, HaloCells int
	// Tiles describes every work tile, row-major.
	Tiles []CityTileInfo
	// Plans lists every owned roof in monolithic extraction order
	// (row-major by first footprint cell, segments in order), with
	// city-wide IDs and Building numbers.
	Plans []CityPlan
	// Dropped lists rejected candidate regions in city cells, each
	// counted once (entries a tile rejected as owned-elsewhere are
	// the owning tile's to report), sorted by position.
	Dropped []district.Dropped
	// Fleet ranks and totals Plans. The economics pass runs once over
	// the stitched city, so a budget spans the whole city and
	// checkpoint-restored tiles price identically to live ones.
	Fleet
}

// roofPlans returns a pointer to every plan's RoofPlan, in Plans
// order.
func (cr *CityResult) roofPlans() []*RoofPlan {
	plans := make([]*RoofPlan, len(cr.Plans))
	for i := range cr.Plans {
		plans[i] = &cr.Plans[i].RoofPlan
	}
	return plans
}

// tileOutcome is one worker's raw product before stitching: the tile
// summary plus its window-local roof plans and drop records. Live
// tiles carry plans with full BatchRuns; tiles replayed from a
// checkpoint carry Restored outcomes — the stitch consumes both
// identically through RoofPlan.Outcome.
type tileOutcome struct {
	info    CityTileInfo
	plans   []RoofPlan
	dropped []district.Dropped
}

// RunCity sweeps a city-scale DSM tile by tile: each core tile is
// materialised with its halo through cfg.Source, swept by the
// district pipeline (extraction, shared tile horizon, concurrent
// planning, shrink retries), and the per-tile fleets are stitched
// into one city-wide ranked result. Components are deduplicated at
// seams by footprint-centroid ownership: every building is extracted
// and planned by exactly one tile, the one whose core contains its
// centroid, while the halo supplies the cross-seam geometry that
// shades it.
//
// With HaloCells at least the horizon's shadow reach (the default)
// plus the largest building extent, the stitched result is
// bit-identical to a monolithic RunDistrict over the full grid —
// extraction order, planes, energies and ranking — for every
// TileCells and TileWorkers value.
func RunCity(cfg CityConfig) (*CityResult, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("pvfloor: city run without a source")
	}
	bounds := cfg.Source.Bounds()
	cellSize := cfg.Source.CellSize()
	if bounds.Empty() || cellSize <= 0 {
		return nil, fmt.Errorf("pvfloor: city source reports empty grid %v (cell %g m)", bounds, cellSize)
	}
	if bounds.X0 != 0 || bounds.Y0 != 0 {
		return nil, fmt.Errorf("pvfloor: city bounds %v not anchored at the origin", bounds)
	}
	if err := validateSweep(cfg.Modules, cfg.MaxModules, cfg.Economics); err != nil {
		return nil, err
	}
	if cfg.Extract.Keep != nil {
		return nil, fmt.Errorf("pvfloor: city run owns Extract.Keep (seam deduplication)")
	}
	tileCells := cfg.TileCells
	if tileCells <= 0 {
		tileCells = 512
	}
	halo := cfg.HaloCells
	if halo == 0 {
		halo = cfg.defaultHalo(cellSize)
	}
	if halo < 0 {
		halo = 0
	}
	workers := cfg.TileWorkers
	if workers <= 0 {
		workers = 1
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	nx := (bounds.W() + tileCells - 1) / tileCells
	ny := (bounds.H() + tileCells - 1) / tileCells
	n := nx * ny
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]*tileOutcome, n)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, workers)
	drained := false
	for t := 0; t < n; t++ {
		if cctx.Err() != nil {
			break
		}
		if cfg.Drain != nil {
			select {
			case <-cfg.Drain:
				drained = true
			default:
			}
		}
		if drained {
			break
		}
		core := geom.Rect{
			X0: (t % nx) * tileCells, Y0: (t / nx) * tileCells,
			X1: (t%nx)*tileCells + tileCells, Y1: (t/nx)*tileCells + tileCells,
		}.Intersect(bounds)
		sem <- struct{}{}
		wg.Add(1)
		go func(t int, core geom.Rect) {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := cfg.resolveTile(cctx, t, n, core, bounds, halo)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("pvfloor: city tile %d (core %v): %w", t, core, err)
				}
				mu.Unlock()
				cancel()
				return
			}
			outcomes[t] = out
		}(t, core)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A drain that won the race against the last dispatches leaves
	// gaps; in-flight tiles have checkpointed, so a rerun with the
	// same checkpoint continues from here.
	for _, out := range outcomes {
		if out == nil {
			return nil, ErrInterrupted
		}
	}
	return stitchCity(cfg, bounds, cellSize, tileCells, halo, outcomes)
}

// defaultHalo derives the overlap margin from the run's horizon
// options: the shadow reach in cells, rounded up. Everything a cell's
// ray march can sample then lies inside its own window.
func (cfg CityConfig) defaultHalo(cellSize float64) int {
	reach := cfg.Fidelity.horizonOptions().Resolved(cellSize).MaxDistanceM
	return int(math.Ceil(reach / cellSize))
}

// resolveTile produces one tile's terminal outcome: replayed from the
// checkpoint when a usable record exists, otherwise run live with
// per-tile retry — and, when a checkpoint is configured, durably
// committed before the outcome counts (a Commit failure is fatal: an
// uncommitted "completed" tile would break resume equivalence).
func (cfg CityConfig) resolveTile(ctx context.Context, t, tiles int, core, bounds geom.Rect, halo int) (*tileOutcome, error) {
	window := geom.Rect{
		X0: core.X0 - halo, Y0: core.Y0 - halo,
		X1: core.X1 + halo, Y1: core.Y1 + halo,
	}.Intersect(bounds)
	emit := func(ev DistrictEvent) {
		if cfg.Progress != nil {
			cfg.Progress(CityEvent{Tile: t, Tiles: tiles, Core: core, Window: window, DistrictEvent: ev})
		}
	}
	if cfg.Checkpoint != nil {
		rec, err := cfg.Checkpoint.Lookup(t)
		if err != nil {
			return nil, fmt.Errorf("checkpoint lookup: %w", err)
		}
		if rec != nil {
			emit(DistrictEvent{Kind: CityTileStarted})
			emit(DistrictEvent{Kind: CityTileFinished})
			return restoreTile(rec), nil
		}
	}
	out, err := cfg.runTileRetrying(ctx, t, tiles, core, window, bounds, emit)
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Commit(t, recordTile(out)); err != nil {
			return nil, fmt.Errorf("checkpoint commit: %w", err)
		}
	}
	emit(DistrictEvent{Kind: CityTileFinished})
	return out, nil
}

// runTileRetrying drives one tile through its attempt budget with
// capped exponential backoff between attempts. Cancellation aborts;
// every other exhaustion degrades to a recorded failure so the rest
// of the city completes.
func (cfg CityConfig) runTileRetrying(ctx context.Context, t, tiles int, core, window, bounds geom.Rect, emit func(DistrictEvent)) (*tileOutcome, error) {
	attempts := cfg.TileRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	first := cfg.Backoff
	if first <= 0 {
		first = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff.Delay(first, 5*time.Second, attempt-1)):
			}
		}
		emit(DistrictEvent{Kind: CityTileStarted})
		out, err := cfg.runTileAttempt(ctx, t, core, window, bounds, emit)
		if err == nil {
			out.info.Attempts = attempt
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return &tileOutcome{info: CityTileInfo{
		Index: t, Core: core, Window: window,
		Attempts: attempts, Failed: lastErr.Error(),
	}}, nil
}

// runTileAttempt materialises one work tile's window, reading it from
// Source once per attempt, and sweeps it through the district
// pipeline, bounded by TileTimeout when set.
func (cfg CityConfig) runTileAttempt(ctx context.Context, t int, core, window, bounds geom.Rect, emit func(DistrictEvent)) (*tileOutcome, error) {
	if cfg.TileTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TileTimeout)
		defer cancel()
	}

	win, mask, err := cfg.Source.Window(window)
	if err != nil {
		return nil, err
	}
	out := &tileOutcome{info: CityTileInfo{Index: t, Core: core, Window: window}}
	if mask != nil && mask.Count() == window.Area() {
		out.info.Skipped = "window entirely NODATA"
		return out, nil
	}

	origin := window.Anchor()
	dc := cfg.TileConfig()
	dc.Tile, dc.NoData, dc.Context = win, mask, ctx
	dc.Extract.SeamEdges = district.Edges{
		Left: window.X0 > bounds.X0, Top: window.Y0 > bounds.Y0,
		Right: window.X1 < bounds.X1, Bottom: window.Y1 < bounds.Y1,
	}
	dc.Extract.Keep = func(_ geom.Rect, cells []geom.Cell) bool {
		return centroidOwned(cells, origin, core)
	}
	dc.Progress = func(ev DistrictEvent) {
		ev.Roof.Rect = offsetRect(ev.Roof.Rect, origin)
		emit(ev)
	}
	res, err := RunDistrict(dc)
	if err != nil {
		return nil, err
	}
	out.plans = res.Plans
	out.dropped = res.Extraction.Dropped
	out.info.GroundZ = res.Extraction.GroundZ
	out.info.Roofs = len(res.Extraction.Roofs)
	return out, nil
}

// TileConfig returns the district config every work tile runs with:
// the ten sweep knobs the two configs share, copied. Tile, NoData,
// Economics, Context and Progress stay unset — RunCity wires them per
// tile and prices the stitched city, never a tile. A district front
// end can start from it too: a district is a one-window city.
func (cfg CityConfig) TileConfig() DistrictConfig {
	return DistrictConfig{
		Extract: cfg.Extract, Site: cfg.Site,
		Modules: cfg.Modules, MaxModules: cfg.MaxModules,
		Fidelity: cfg.Fidelity, Optimizer: cfg.Optimizer, SkipBaseline: cfg.SkipBaseline,
		Cache: cfg.Cache, Concurrency: cfg.Concurrency, FieldWorkers: cfg.FieldWorkers,
	}
}

// centroidOwned reports whether the footprint's centroid lies inside
// core. cells are window-local, origin is the window anchor in city
// cells, core is in city cells. The test is exact: with cell centers
// at +0.5, centroid = (Σx + n/2)/n, so centroid ≥ X0 ⟺
// 2Σx + n ≥ 2nX0 — all integers, no float rounding at seams.
func centroidOwned(cells []geom.Cell, origin geom.Cell, core geom.Rect) bool {
	var sx, sy int64
	for _, c := range cells {
		sx += int64(origin.X + c.X)
		sy += int64(origin.Y + c.Y)
	}
	n := int64(len(cells))
	if n == 0 {
		return false
	}
	cx2, cy2 := 2*sx+n, 2*sy+n // centroid ×2n
	return cx2 >= 2*n*int64(core.X0) && cx2 < 2*n*int64(core.X1) &&
		cy2 >= 2*n*int64(core.Y0) && cy2 < 2*n*int64(core.Y1)
}

func offsetRect(r geom.Rect, d geom.Cell) geom.Rect {
	return geom.Rect{X0: r.X0 + d.X, Y0: r.Y0 + d.Y, X1: r.X1 + d.X, Y1: r.Y1 + d.Y}
}

// firstFootprintCell returns the roof's first footprint cell in
// row-major order, in city cells — the deterministic sort key that
// reproduces monolithic extraction order across tiles (components are
// discovered by row-major flood-fill seeding).
func firstFootprintCell(roof district.Roof) geom.Cell {
	for y := 0; y < roof.Footprint.H(); y++ {
		for x := 0; x < roof.Footprint.W(); x++ {
			if roof.Footprint.Get(geom.Cell{X: x, Y: y}) {
				return geom.Cell{X: roof.Rect.X0 + x, Y: roof.Rect.Y0 + y}
			}
		}
	}
	return roof.Rect.Anchor()
}

// stitchCity merges per-tile outcomes into the city-wide result:
// roofs in monolithic extraction order with renumbered IDs and
// buildings, a global ranking, and deduplicated drop records.
func stitchCity(cfg CityConfig, bounds geom.Rect, cellSize float64, tileCells, halo int, outcomes []*tileOutcome) (*CityResult, error) {
	cr := &CityResult{
		Bounds: bounds, CellSizeM: cellSize,
		TileCells: tileCells, HaloCells: halo,
		Tiles: make([]CityTileInfo, 0, len(outcomes)),
	}
	// One building group per (tile, tile-local building number).
	type group struct {
		first   geom.Cell // min first-footprint-cell over members
		members []CityPlan
	}
	var groups []*group
	index := map[[2]int]*group{}
	for _, out := range outcomes {
		if out == nil { // cancelled before this tile ran
			continue
		}
		cr.Tiles = append(cr.Tiles, out.info)
		origin := out.info.Window.Anchor()
		for _, rp := range out.plans {
			rp.Roof.Rect = offsetRect(rp.Roof.Rect, origin)
			key := [2]int{out.info.Index, rp.Roof.Building}
			g, ok := index[key]
			if !ok {
				g = &group{first: geom.Cell{X: bounds.X1, Y: bounds.Y1}}
				index[key] = g
				groups = append(groups, g)
			}
			if f := firstFootprintCell(rp.Roof); compareCells(f, g.first) < 0 {
				g.first = f
			}
			g.members = append(g.members, CityPlan{RoofPlan: rp, Tile: out.info.Index})
		}
		for _, d := range out.dropped {
			if d.Reason == district.DropNotOwned {
				continue // the owning tile reports it with its real fate
			}
			d.Rect = offsetRect(d.Rect, origin)
			cr.Dropped = append(cr.Dropped, d)
		}
	}
	slices.SortStableFunc(groups, func(a, b *group) int { return compareCells(a.first, b.first) })
	for gi, g := range groups {
		slices.SortStableFunc(g.members, func(a, b CityPlan) int {
			return cmp.Compare(a.Roof.Segment, b.Roof.Segment)
		})
		for _, m := range g.members {
			m.Roof.Building = gi + 1
			m.Roof.ID = len(cr.Plans) + 1
			cr.Plans = append(cr.Plans, m)
		}
	}
	slices.SortStableFunc(cr.Dropped, func(a, b district.Dropped) int {
		return cmp.Or(cmp.Compare(a.Rect.Y0, b.Rect.Y0), cmp.Compare(a.Rect.X0, b.Rect.X0),
			cmp.Compare(a.Reason, b.Reason))
	})

	// The fleet pass reads the flattened Outcome, so live and
	// checkpoint-restored plans stitch identically.
	var err error
	if cr.Fleet, err = rankFleet(cr.roofPlans(), cfg.Economics); err != nil {
		return nil, err
	}
	return cr, nil
}

// compareCells orders cells row-major.
func compareCells(a, b geom.Cell) int {
	return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
}

// CityTable renders the ranked city report: the district table's
// format with tile provenance, plus per-tile and aggregate totals.
func CityTable(cr *CityResult) string {
	out := fleetTable(cr.roofPlans(), &cr.Fleet)
	ran, failed := 0, 0
	for _, ti := range cr.Tiles {
		switch {
		case ti.Failed != "":
			failed++
		case ti.Skipped == "":
			ran++
		}
	}
	out += fmt.Sprintf("City: %v at %g m/cell, %d/%d tiles swept (tile %d cells, halo %d), %d roofs owned\n",
		cr.Bounds, cr.CellSizeM, ran, len(cr.Tiles), cr.TileCells, cr.HaloCells, len(cr.Plans))
	if failed > 0 {
		out += fmt.Sprintf("WARNING: %d tile(s) failed after exhausting retries; their roofs are missing above\n", failed)
	}
	return out
}
