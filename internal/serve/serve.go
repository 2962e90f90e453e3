// Package serve is the HTTP front-end of the pvfloor engine: a
// long-lived, cache-warm process boundary that exposes Run, RunBatch
// and RunDistrict as JSON endpoints, streaming the batch and district
// pipelines as NDJSON progress events.
//
// Endpoints:
//
//	GET  /healthz      — liveness plus job-pool gauges and store census
//	POST /v1/run       — one pipeline run, synchronous JSON response
//	POST /v1/batch     — a fleet of runs, NDJSON progress stream
//	POST /v1/district  — a DSM tile sweep, NDJSON progress stream
//	POST /v1/city      — a tiled city sweep, NDJSON progress stream
//	/v1/jobs...        — durable async jobs: submit, poll, fetch, cancel
//
// The streaming endpoints emit one JSON object per line: progress
// events ("run" for batch completions; "roof-extracted" and
// "roof-planned" for the district pipeline) in completion order —
// concurrent workers finish nondeterministically — followed by a
// final "result" line whose payload is deterministic for a given
// request. The district result embeds the same pvfloor.DistrictReport
// struct that cmd/pvdistrict -json prints, so the two surfaces are
// byte-equivalent after ordering and both stay pinned by the golden
// corpus.
//
// Every request runs under a bounded job pool (Options.
// MaxConcurrentRuns running, Options.QueueDepth waiting; excess
// requests get 503 with a Retry-After derived from the observed run
// times and the backlog ahead), each run's internal fan-out is
// capped by Options.Concurrency and Options.FieldWorkers so one large
// tile cannot starve the process, and the request context is threaded
// down into the batch fan-out: a client that disconnects mid-stream
// cancels the remaining roof runs. With Options.CacheDir set, every
// request shares one persistent field-artifact cache, so repeated
// tiles and roofs are warm across requests and across processes.
//
// With Options.Jobs set, the /v1/jobs surface additionally accepts
// city runs as durable async jobs: recorded before the 202, executed
// in the background under the same run-slot pool, checkpointed tile
// by tile, and resumable across process restarts (see jobs.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/blobstore"
	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/jobs"
	"repro/internal/tilestore"
)

// Options tunes a Server. The zero value serves with conservative
// defaults: 2 concurrent runs, a queue of 8, per-CPU worker pools, no
// artifact cache.
type Options struct {
	// MaxConcurrentRuns bounds how many requests execute their
	// pipeline simultaneously (default 2). Requests beyond it wait in
	// the queue.
	MaxConcurrentRuns int
	// QueueDepth bounds how many requests may wait for a run slot
	// (default 8). Requests beyond it are rejected with 503.
	QueueDepth int
	// Concurrency bounds each request's internal run fan-out (the
	// RunBatch pool; 0 = one per CPU). Together with
	// MaxConcurrentRuns it caps the process's total planning
	// parallelism.
	Concurrency int
	// FieldWorkers bounds each roof's solar-field worker pool
	// (0 = one per CPU). Results are identical for every value.
	FieldWorkers int
	// CacheDir, when non-empty, is the shared persistent
	// field-artifact cache: repeated tiles and roofs are served warm
	// across requests and processes. The directory is also exposed at
	// /v1/blobs/{key} so peer processes can use this one as their
	// remote cache tier.
	CacheDir string
	// CacheRemote, when non-empty, is the base URL of a peer's blob
	// mount (e.g. "http://cache-host:8037/v1/blobs"): local cache
	// misses fall through to it and local stores publish to it. Any
	// remote failure — 5xx, corrupt payload, timeout — degrades to
	// recompute, never fails a request.
	CacheRemote string
	// RemoteCache, when non-nil, overrides CacheRemote with a
	// pre-built backend — the seam tests use to inject tuned timeouts
	// or failing tiers.
	RemoteCache blobstore.Backend
	// TilesDir, when non-empty, enables the uploaded-tile store
	// (POST /v1/tiles): district/city/job requests name an uploaded
	// DSM by tile_ref.
	TilesDir string
	// MaxBodyBytes caps request bodies, tile uploads included
	// (default 16 MiB).
	MaxBodyBytes int64
	// Jobs, when non-nil, enables the durable async job surface
	// (/v1/jobs): submitted city runs are journaled in this store,
	// executed in the background, and resumed across restarts.
	Jobs *jobs.Store
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrentRuns <= 0 {
		o.MaxConcurrentRuns = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	return o
}

// Server is the HTTP front-end. Create with New; it implements
// http.Handler and is safe for concurrent use. On a server with a job
// store, call ResumeJobs after New to restart parked jobs and
// Shutdown to drain the runners before exit.
type Server struct {
	opts  Options
	pool  *pool
	mux   *http.ServeMux
	jobs  *jobs.Store
	cache *fieldcache.Cache // nil = no artifact cache configured
	tiles *tilestore.Store  // nil = no tile store configured

	// drain closes when Shutdown begins: running city jobs stop
	// dispatching tiles and park as interrupted.
	drain     chan struct{}
	drainOnce sync.Once
	// jobCtx bounds every background job; jobCancel is the
	// shutdown-deadline hard abort.
	jobCtx    context.Context
	jobCancel context.CancelFunc
	jobWG     sync.WaitGroup
	jobRuns   sync.Map // job ID → *jobRun
	// cityHook, when non-nil, may adjust every city config just before
	// RunCity — the fault-injection seam the resilience tests use.
	cityHook func(*pvfloor.CityConfig)
}

// New builds a Server with its routes, storage tiers and job pool.
// It errors only on unusable storage configuration (bad cache or
// tile directory, malformed CacheRemote URL).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		pool:  newPool(opts.MaxConcurrentRuns, opts.QueueDepth),
		mux:   http.NewServeMux(),
		jobs:  opts.Jobs,
		drain: make(chan struct{}),
	}
	remote := opts.RemoteCache
	if remote == nil && opts.CacheRemote != "" {
		var err error
		if remote, err = blobstore.OpenHTTP(opts.CacheRemote, blobstore.HTTPOptions{}); err != nil {
			return nil, err
		}
	}
	if opts.CacheDir != "" || remote != nil {
		var err error
		s.cache, err = fieldcache.OpenTiered(fieldcache.Config{Dir: opts.CacheDir, Remote: remote})
		if err != nil {
			return nil, err
		}
	}
	if opts.TilesDir != "" {
		var err error
		if s.tiles, err = tilestore.Open(opts.TilesDir); err != nil {
			return nil, err
		}
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/district", s.handleDistrict)
	s.mux.HandleFunc("POST /v1/city", s.handleCity)
	s.mux.HandleFunc("POST /v1/tiles", s.handleTileUpload)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	// With a local cache directory this process doubles as a blob
	// peer: fleet members point -cache-remote here and read/publish
	// artifacts through the same verified envelope path.
	if s.cache != nil && s.cache.Local() != nil {
		s.mux.Handle("/v1/blobs/{key}", blobstore.Handler(s.cache.Local()))
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Health is the /healthz payload: pool gauges plus, when configured,
// the job store census, the artifact cache's per-tier traffic and the
// uploaded-tile census.
type Health struct {
	Status   string              `json:"status"`
	Running  int                 `json:"running"`
	Queued   int                 `json:"queued"`
	Capacity int                 `json:"capacity"`
	Queue    int                 `json:"queue_depth"`
	Jobs     *jobs.Counts        `json:"jobs,omitempty"`
	Cache    *fieldcache.Metrics `json:"cache,omitempty"`
	Tiles    *TilesHealth        `json:"tiles,omitempty"`
}

// TilesHealth is the uploaded-tile census in /healthz.
type TilesHealth struct {
	// Count is the number of stored tiles.
	Count int `json:"count"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	running, queued := s.pool.gauges()
	h := Health{
		Status: "ok", Running: running, Queued: queued,
		Capacity: s.opts.MaxConcurrentRuns, Queue: s.opts.QueueDepth,
	}
	if s.jobs != nil {
		c := s.jobs.Counts()
		h.Jobs = &c
	}
	if s.cache != nil {
		m := s.cache.Metrics()
		h.Cache = &m
	}
	if s.tiles != nil {
		n, err := s.tiles.Count()
		if err == nil {
			h.Tiles = &TilesHealth{Count: n}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// handleRun executes one pipeline run synchronously.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	cfg, err := s.runConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		s.writeBusy(w, err)
		return
	}
	defer release()
	start := time.Now()
	res, err := pvfloor.Run(cfg)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, runReport(cfg.Name(), cfg, res, time.Since(start)))
}

// handleBatch streams a fleet of runs as NDJSON: one "run" event per
// completion (in completion order), then a final "result" event with
// every report in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Runs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: provide runs"))
		return
	}
	cfgs := make([]pvfloor.Config, len(req.Runs))
	for i, rr := range req.Runs {
		cfg, err := s.runConfig(rr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("runs[%d]: %w", i, err))
			return
		}
		cfgs[i] = cfg
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		s.writeBusy(w, err)
		return
	}
	defer release()

	stream := newStream(w)
	runs, err := pvfloor.RunBatch(cfgs, pvfloor.BatchOptions{
		Concurrency:  s.opts.Concurrency,
		FieldWorkers: s.opts.FieldWorkers,
		Context:      r.Context(),
		Progress: func(br pvfloor.BatchRun) {
			stream.send(batchEvent(br))
		},
	})
	if err != nil {
		stream.send(errorEvent(err))
		return
	}
	if err := r.Context().Err(); err != nil {
		stream.send(errorEvent(err))
		return
	}
	reports := make([]RunReport, len(runs))
	for i, br := range runs {
		reports[i] = batchEvent(br).RunReport
	}
	stream.send(BatchResultEvent{Event: "result", Runs: reports})
}

// handleDistrict streams a tile sweep as NDJSON: "roof-extracted"
// events in roof order, "roof-planned" events in completion order,
// then a final deterministic "result" event embedding the shared
// pvfloor.DistrictReport.
func (s *Server) handleDistrict(w http.ResponseWriter, r *http.Request) {
	var req DistrictRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Cheap field validation runs before admission; materialising the
	// tile (the expensive, memory-heavy part) waits for a run slot so
	// a burst of large tiles bounces at the pool instead of decoding
	// rasters it will never run.
	if err := s.validateTile(req); err != nil {
		writeTileError(w, err)
		return
	}
	cfg, err := s.districtConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		s.writeBusy(w, err)
		return
	}
	defer release()
	cfg.Tile, cfg.NoData, err = s.tile(req)
	if err != nil {
		writeTileError(w, err)
		return
	}

	stream := newStream(w)
	start := time.Now()
	cfg.Context = r.Context()
	cfg.Progress = func(ev pvfloor.DistrictEvent) {
		stream.send(districtEvent(ev))
	}
	res, err := pvfloor.RunDistrict(cfg)
	if err != nil {
		stream.send(errorEvent(err))
		return
	}
	stream.send(DistrictResultEvent{
		Event:     "result",
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		District:  pvfloor.NewDistrictReport(res),
	})
}

// handleCity streams a tiled city sweep as NDJSON: "tile-started" /
// "tile-finished" lifecycle events per work tile, roof events with
// tile provenance in city coordinates, then a final deterministic
// "result" event embedding the shared pvfloor.CityReport. A tile_ref
// city is read through the windowed reader over the stored upload
// (see openCitySource), so its memory stays O(window).
func (s *Server) handleCity(w http.ResponseWriter, r *http.Request) {
	var req CityRequest
	if !s.decode(w, r, &req) {
		return
	}
	cfg, err := s.cityRunConfig(req)
	if err != nil {
		writeTileError(w, err)
		return
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		s.writeBusy(w, err)
		return
	}
	defer release()
	closeSrc, err := s.openCitySource(&cfg, req.DistrictRequest)
	if err != nil {
		writeTileError(w, err)
		return
	}
	defer closeSrc()

	stream := newStream(w)
	start := time.Now()
	cfg.Context = r.Context()
	cfg.Progress = func(ev pvfloor.CityEvent) {
		stream.send(cityEvent(ev))
	}
	res, err := pvfloor.RunCity(cfg)
	if err != nil {
		stream.send(errorEvent(err))
		return
	}
	stream.send(CityResultEvent{
		Event:     "result",
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		City:      pvfloor.NewCityReport(res),
	})
}

// decode parses a JSON request body strictly (unknown fields are
// rejected) under the body-size cap, answering 400 (or 413 for an
// oversized body) itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.opts.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// errNoTileStore answers tile_ref requests and uploads on a server
// without a tile store.
var errNoTileStore = errors.New("no tile store configured (start pvserve with -tiles-dir)")

// handleTileUpload is POST /v1/tiles: the body is one DSM tile — a
// plain or gzip-compressed ESRI ASCII grid (sniffed by magic bytes,
// no JSON framing). The tile is validated end to end, stored under a
// content-derived ref, and described in the 201 response; the ref
// then names the tile in district/city/job requests (tile_ref) so a
// fleet uploads each tile once instead of embedding it per request.
func (s *Server) handleTileUpload(w http.ResponseWriter, r *http.Request) {
	if s.tiles == nil {
		writeError(w, http.StatusServiceUnavailable, errNoTileStore)
		return
	}
	info, err := s.tiles.Put(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("tile exceeds %d bytes", s.opts.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// validateTileChoice checks the tile selection without materialising
// anything — it runs before pool admission.
func (dr DistrictRequest) validateTileChoice() error {
	switch {
	case dr.TileRef == "" && !dr.Demo:
		return errors.New("exactly one of tile_ref or demo is required")
	case dr.TileRef != "" && dr.Demo:
		return errors.New("tile_ref and demo are mutually exclusive: set exactly one")
	}
	return nil
}

// validateTile runs the stateless tile-choice check plus the server
// preconditions (a tile_ref needs a tile store).
func (s *Server) validateTile(dr DistrictRequest) error {
	if err := dr.validateTileChoice(); err != nil {
		return err
	}
	if dr.TileRef != "" && s.tiles == nil {
		return errNoTileStore
	}
	return nil
}

// writeTileError maps tile selection/materialisation failures onto
// status codes: an unknown tile_ref is 404, a missing tile store 503,
// everything else (bad grid, bad selection) 400.
func writeTileError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tilestore.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errNoTileStore):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// tile materialises the request's DSM in memory: the built-in
// synthetic neighborhood with Demo, otherwise the stored upload named
// by tile_ref. Call only after validateTile (and after pool admission
// — parsing a 16 MiB grid is the expensive part of request setup).
func (s *Server) tile(dr DistrictRequest) (*dsm.Raster, *geom.Mask, error) {
	if dr.Demo {
		return district.SyntheticNeighborhood(), nil, nil
	}
	path, err := s.tiles.Path(dr.TileRef)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("opening tile %s: %w", dr.TileRef, err)
	}
	defer f.Close()
	tile, nodata, err := gis.LoadRaster(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reading tile %s: %w", dr.TileRef, err)
	}
	return tile, nodata, nil
}

// cityRunConfig validates a city request without materialising its
// tile: the tile choice, then every field. handleCity, the job submit
// and the job runner start here; the two runs then wait for their run
// slot and only then call openCitySource.
func (s *Server) cityRunConfig(req CityRequest) (pvfloor.CityConfig, error) {
	if err := s.validateTile(req.DistrictRequest); err != nil {
		return pvfloor.CityConfig{}, err
	}
	return s.cityConfig(req)
}

// openCitySource materialises the request's DSM as cfg.Source for the
// tiled pipeline. The demo tile wraps its in-memory raster. A tile_ref
// request is served through gis.OpenWindowed over the stored
// (gzipped) upload — the true out-of-core path, O(window) memory
// however large the upload. The returned func releases the source
// when the run finishes.
func (s *Server) openCitySource(cfg *pvfloor.CityConfig, dr DistrictRequest) (func(), error) {
	if dr.Demo {
		cfg.Source = &gis.RasterSource{Raster: district.SyntheticNeighborhood()}
		return func() {}, nil
	}
	path, err := s.tiles.Path(dr.TileRef)
	if err != nil {
		return nil, err
	}
	wr, err := gis.OpenWindowed(path, gis.WindowOptions{})
	if err != nil {
		return nil, fmt.Errorf("opening tile %s: %w", dr.TileRef, err)
	}
	cfg.Source = wr
	return func() { wr.Close() }, nil
}
