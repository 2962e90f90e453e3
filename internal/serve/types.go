package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	pvfloor "repro"
	"repro/internal/district"
	"repro/internal/econ"
	"repro/internal/scenario"
)

// ---- requests ----

// OptimizerRequest selects and tunes the placement strategy of a run
// (all fields optional; the zero value is the paper's greedy
// heuristic).
type OptimizerRequest struct {
	Strategy   string `json:"strategy,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Restarts   int    `json:"restarts,omitempty"`
}

// RunRequest is one pipeline run: a named built-in scenario plus a
// module count.
type RunRequest struct {
	// Scenario names a built-in roof: roof1, roof2, roof3 or
	// residential, or an alias 1, 2, 3 or res (case and spaces
	// ignored).
	Scenario string `json:"scenario"`
	// Modules is the PV module count N (a positive multiple of 8).
	Modules int `json:"modules"`
	// Label optionally names the run in reports.
	Label string `json:"label,omitempty"`
	// Fidelity is "fast" (default) or "full".
	Fidelity     string           `json:"fidelity,omitempty"`
	Optimizer    OptimizerRequest `json:"optimizer,omitempty"`
	SkipBaseline bool             `json:"skip_baseline,omitempty"`
}

// BatchRequest is a fleet of runs streamed as NDJSON.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
}

// ExtractRequest tunes the district roof extraction (all optional;
// zero values select the district package defaults).
type ExtractRequest struct {
	MinHeightM          float64 `json:"min_height_m,omitempty"`
	GroundPercentile    float64 `json:"ground_percentile,omitempty"`
	MinAreaCells        int     `json:"min_area_cells,omitempty"`
	MinRectangularity   float64 `json:"min_rectangularity,omitempty"`
	MaxFitRMSM          float64 `json:"max_fit_rms_m,omitempty"`
	ObstacleReliefM     float64 `json:"obstacle_relief_m,omitempty"`
	OpeningCells        int     `json:"opening_cells,omitempty"`
	KeepBorder          bool    `json:"keep_border,omitempty"`
	SuitableMarginCells int     `json:"suitable_margin_cells,omitempty"`
	MaxRoofs            int     `json:"max_roofs,omitempty"`
}

// EconRequest switches a district/city sweep into economics-aware
// fleet ranking (its presence enables the pass; all fields optional).
type EconRequest struct {
	// BudgetUSD caps the fleet capital; roofs are admitted greedily by
	// marginal NPV per dollar (0 = unbounded).
	BudgetUSD float64 `json:"budget_usd,omitempty"`
	// RankBy is the ranking objective: energy (default), npv or
	// payback.
	RankBy string `json:"rank_by,omitempty"`
	// Catalog overrides the built-in two-class panel catalog.
	Catalog []pvfloor.PanelClass `json:"catalog,omitempty"`
	// TariffUSDPerKWh / DiscountRate / LifetimeYears override the
	// Turin-2018 financial defaults (0 = keep the default).
	TariffUSDPerKWh float64 `json:"tariff_usd_per_kwh,omitempty"`
	DiscountRate    float64 `json:"discount_rate,omitempty"`
	LifetimeYears   int     `json:"lifetime_years,omitempty"`
}

// config maps the request onto the engine's econ config. Partial
// financial overrides start from the Turin-2018 defaults so a request
// can change just the tariff without restating the rest.
func (er *EconRequest) config() pvfloor.EconConfig {
	ec := pvfloor.EconConfig{
		Enabled:   true,
		BudgetUSD: er.BudgetUSD,
		RankBy:    pvfloor.RankBy(er.RankBy),
		Catalog:   er.Catalog,
	}
	if er.TariffUSDPerKWh != 0 || er.DiscountRate != 0 || er.LifetimeYears != 0 {
		fin := econ.TurinFeedIn2018()
		if er.TariffUSDPerKWh != 0 {
			fin.TariffUSDPerKWh = er.TariffUSDPerKWh
		}
		if er.DiscountRate != 0 {
			fin.DiscountRate = er.DiscountRate
		}
		if er.LifetimeYears != 0 {
			fin.LifetimeYears = er.LifetimeYears
		}
		ec.Financials = fin
	}
	return ec
}

// DistrictRequest is one whole-tile district sweep streamed as
// NDJSON. Exactly one of TileRef (a ref returned by POST /v1/tiles:
// the tile crosses the wire once and later requests name it) or Demo
// (the built-in synthetic neighborhood) selects the tile.
type DistrictRequest struct {
	TileRef      string           `json:"tile_ref,omitempty"`
	Demo         bool             `json:"demo,omitempty"`
	Modules      int              `json:"modules,omitempty"`
	MaxModules   int              `json:"max_modules,omitempty"`
	Fidelity     string           `json:"fidelity,omitempty"`
	Optimizer    OptimizerRequest `json:"optimizer,omitempty"`
	SkipBaseline bool             `json:"skip_baseline,omitempty"`
	Extract      ExtractRequest   `json:"extract,omitempty"`
	Econ         *EconRequest     `json:"econ,omitempty"`
}

// CityRequest is a city-scale tiled sweep streamed as NDJSON: the
// district request surface plus the out-of-core partitioning knobs.
// The selected grid is partitioned into tile_cells×tile_cells work
// tiles, each swept with a halo_cells overlap margin and deduplicated
// at seams, so the stitched result matches a monolithic district run.
type CityRequest struct {
	DistrictRequest
	// TileCells is the core work-tile edge length in cells (0 = the
	// engine default, 512).
	TileCells int `json:"tile_cells,omitempty"`
	// HaloCells is the overlap margin (0 = derive from the horizon's
	// shadow reach, negative = no halo).
	HaloCells int `json:"halo_cells,omitempty"`
	// TileWorkers bounds how many tiles are in flight at once
	// (0 = sequential tiles, the bounded-memory default).
	TileWorkers int `json:"tile_workers,omitempty"`
	// TileRetries is the number of extra attempts a failed tile gets
	// before it is recorded as failed (0 = one attempt only).
	TileRetries int `json:"tile_retries,omitempty"`
	// TileTimeoutMS bounds each tile attempt in milliseconds
	// (0 = unbounded). A timed-out attempt counts against TileRetries.
	TileTimeoutMS int `json:"tile_timeout_ms,omitempty"`
	// BackoffMS is the delay before the first retry in milliseconds,
	// doubling per attempt and capped at 5s (0 = the 50ms default).
	BackoffMS int `json:"backoff_ms,omitempty"`
}

// ---- request → pvfloor config ----

// scenarios memoises the built-in scenarios per canonical name:
// within one process every request that names the same roof shares
// one *Scenario instance, so batch runs group onto one solar field
// and the artifact-cache keys stay stable across requests.
var scenarios = struct {
	sync.Mutex
	byName map[string]*scenario.Scenario
}{byName: map[string]*scenario.Scenario{}}

func lookupScenario(name string) (*scenario.Scenario, error) {
	key, err := scenario.Canonical(name)
	if err != nil {
		return nil, err
	}
	scenarios.Lock()
	defer scenarios.Unlock()
	if sc := scenarios.byName[key]; sc != nil {
		return sc, nil
	}
	sc, err := scenario.ByName(key)
	if err != nil {
		return nil, err
	}
	scenarios.byName[key] = sc
	return sc, nil
}

func parseFidelity(s string) (pvfloor.Fidelity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fast":
		return pvfloor.Fast, nil
	case "full":
		return pvfloor.Full, nil
	default:
		return 0, fmt.Errorf("unknown fidelity %q (want fast or full)", s)
	}
}

// Caps on the untrusted optimizer budget: an in-flight roof is never
// interrupted, so an unbounded walk would pin a run slot.
const (
	maxIterations = 1_000_000
	maxRestarts   = 64
)

// config validates the optimizer block. The multistart restart pool
// is the run's Workers, which the server sets to its field-worker
// pool.
func (or OptimizerRequest) config() (pvfloor.OptimizerConfig, error) {
	strat, err := pvfloor.ParseStrategy(or.Strategy)
	if err != nil {
		return pvfloor.OptimizerConfig{}, err
	}
	switch {
	case or.Iterations < 0 || or.Iterations > maxIterations:
		return pvfloor.OptimizerConfig{}, fmt.Errorf("optimizer iterations %d outside [0, %d]", or.Iterations, maxIterations)
	case or.Restarts < 0 || or.Restarts > maxRestarts:
		return pvfloor.OptimizerConfig{}, fmt.Errorf("optimizer restarts %d outside [0, %d]", or.Restarts, maxRestarts)
	}
	return pvfloor.OptimizerConfig{
		Strategy:   strat,
		Seed:       or.Seed,
		Iterations: or.Iterations,
		Restarts:   or.Restarts,
	}, nil
}

// runConfig validates one RunRequest into a pipeline config bound to
// the server's worker caps and artifact cache.
func (s *Server) runConfig(req RunRequest) (pvfloor.Config, error) {
	sc, err := lookupScenario(req.Scenario)
	if err != nil {
		return pvfloor.Config{}, err
	}
	if req.Modules < 8 || req.Modules%8 != 0 {
		return pvfloor.Config{}, fmt.Errorf("modules %d must be a positive multiple of 8", req.Modules)
	}
	fid, err := parseFidelity(req.Fidelity)
	if err != nil {
		return pvfloor.Config{}, err
	}
	opt, err := req.Optimizer.config()
	if err != nil {
		return pvfloor.Config{}, err
	}
	return pvfloor.Config{
		Scenario:     sc,
		Label:        req.Label,
		Modules:      req.Modules,
		Fidelity:     fid,
		Optimizer:    opt,
		SkipBaseline: req.SkipBaseline,
		Workers:      s.opts.FieldWorkers,
		Cache:        s.cache,
	}, nil
}

// districtConfig validates a DistrictRequest into a district config
// bound to the server's pools and artifact cache (Tile, NoData,
// Context and Progress are attached by the handler). A district is a
// one-window city: the sweep fields go through cityConfig.
func (s *Server) districtConfig(req DistrictRequest) (pvfloor.DistrictConfig, error) {
	c, err := s.cityConfig(CityRequest{DistrictRequest: req})
	if err != nil {
		return pvfloor.DistrictConfig{}, err
	}
	cfg := c.TileConfig()
	cfg.Economics = c.Economics
	return cfg, nil
}

// Caps on the untrusted city retry policy: the millisecond fields
// become time.Duration nanoseconds, which overflow into negative
// durations long before the int range ends, and every retry replans a
// whole tile.
const (
	maxTileDurationMS = 3_600_000 // 1 h, for tile_timeout_ms and backoff_ms
	maxTileRetries    = 16
)

// cityConfig validates a CityRequest into a city config bound to the
// server's pools and artifact cache (Source, Context and Progress are
// attached by the handler).
func (s *Server) cityConfig(req CityRequest) (pvfloor.CityConfig, error) {
	if req.Modules != 0 && (req.Modules < 8 || req.Modules%8 != 0) {
		return pvfloor.CityConfig{}, fmt.Errorf("modules %d must be a multiple of 8 (or 0 to auto-size)", req.Modules)
	}
	fid, err := parseFidelity(req.Fidelity)
	if err != nil {
		return pvfloor.CityConfig{}, err
	}
	opt, err := req.Optimizer.config()
	if err != nil {
		return pvfloor.CityConfig{}, err
	}
	var ec pvfloor.EconConfig
	if req.Econ != nil {
		ec = req.Econ.config()
		if err := ec.Validate(); err != nil {
			return pvfloor.CityConfig{}, err
		}
	}
	if req.TileCells < 0 {
		return pvfloor.CityConfig{}, fmt.Errorf("tile_cells %d must not be negative (0 = default)", req.TileCells)
	}
	if req.TileWorkers < 0 {
		return pvfloor.CityConfig{}, fmt.Errorf("tile_workers %d must not be negative (0 = sequential)", req.TileWorkers)
	}
	switch {
	case req.TileRetries < 0 || req.TileRetries > maxTileRetries:
		return pvfloor.CityConfig{}, fmt.Errorf("tile_retries %d outside [0, %d]", req.TileRetries, maxTileRetries)
	case req.TileTimeoutMS < 0 || req.TileTimeoutMS > maxTileDurationMS:
		return pvfloor.CityConfig{}, fmt.Errorf("tile_timeout_ms %d outside [0, %d]", req.TileTimeoutMS, maxTileDurationMS)
	case req.BackoffMS < 0 || req.BackoffMS > maxTileDurationMS:
		return pvfloor.CityConfig{}, fmt.Errorf("backoff_ms %d outside [0, %d]", req.BackoffMS, maxTileDurationMS)
	}
	return pvfloor.CityConfig{
		TileCells:   req.TileCells,
		HaloCells:   req.HaloCells,
		TileWorkers: req.TileWorkers,
		TileRetries: req.TileRetries,
		TileTimeout: time.Duration(req.TileTimeoutMS) * time.Millisecond,
		Backoff:     time.Duration(req.BackoffMS) * time.Millisecond,
		Extract: district.Options{
			MinHeightM:          req.Extract.MinHeightM,
			GroundPercentile:    req.Extract.GroundPercentile,
			MinAreaCells:        req.Extract.MinAreaCells,
			MinRectangularity:   req.Extract.MinRectangularity,
			MaxFitRMSM:          req.Extract.MaxFitRMSM,
			ObstacleReliefM:     req.Extract.ObstacleReliefM,
			OpeningCells:        req.Extract.OpeningCells,
			KeepBorder:          req.Extract.KeepBorder,
			SuitableMarginCells: req.Extract.SuitableMarginCells,
			MaxRoofs:            req.Extract.MaxRoofs,
		},
		Modules:      req.Modules,
		MaxModules:   req.MaxModules,
		Fidelity:     fid,
		Optimizer:    opt,
		SkipBaseline: req.SkipBaseline,
		Economics:    ec,
		Cache:        s.cache,
		Concurrency:  s.opts.Concurrency,
		FieldWorkers: s.opts.FieldWorkers,
	}, nil
}

// ---- responses and events ----

// RunReport is the outcome of one pipeline run: the energy digest of
// the proposed (and baseline) placement plus the statistics-pass
// fingerprint.
type RunReport struct {
	Name           string  `json:"name"`
	Scenario       string  `json:"scenario,omitempty"`
	Modules        int     `json:"modules"`
	GPctDigest     string  `json:"gpct_digest,omitempty"`
	ProposedMWh    float64 `json:"proposed_mwh,omitempty"`
	TraditionalMWh float64 `json:"traditional_mwh,omitempty"`
	GainPct        float64 `json:"gain_pct,omitempty"`
	WiringExtraM   float64 `json:"wiring_extra_m,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// runReport flattens a successful result.
func runReport(name string, cfg pvfloor.Config, res *pvfloor.Result, elapsed time.Duration) RunReport {
	rep := RunReport{
		Name:       name,
		Modules:    res.Proposed.Topology.Modules(),
		GPctDigest: pvfloor.GPctDigest(res.Stats),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
	if cfg.Scenario != nil {
		rep.Scenario = cfg.Scenario.Name
	}
	rep.ProposedMWh = res.ProposedEval.NetMWh()
	rep.WiringExtraM = res.ProposedEval.WiringExtraM
	if res.Traditional != nil {
		rep.TraditionalMWh = res.TraditionalEval.NetMWh()
		rep.GainPct = res.ImprovementPct()
	}
	return rep
}

// RunEvent is one NDJSON line of a batch stream.
type RunEvent struct {
	Event string `json:"event"` // "run"
	Index int    `json:"index"`
	RunReport
}

// batchEvent flattens one batch completion (success or failure).
func batchEvent(br pvfloor.BatchRun) RunEvent {
	ev := RunEvent{Event: "run", Index: br.Index}
	if br.Err != nil {
		ev.RunReport = RunReport{Name: br.Name, Modules: br.Config.Modules, Error: br.Err.Error()}
		return ev
	}
	ev.RunReport = runReport(br.Name, br.Config, br.Result, br.Elapsed)
	return ev
}

// BatchResultEvent is the final line of a batch stream: every report
// in input order (deterministic for a given request).
type BatchResultEvent struct {
	Event string      `json:"event"` // "result"
	Runs  []RunReport `json:"runs"`
}

// DistrictRoofEvent is one NDJSON line of a district stream: a roof
// leaving extraction ("roof-extracted") or finishing its run
// ("roof-planned", carrying the energy digest).
type DistrictRoofEvent struct {
	Event string `json:"event"`
	Index int    `json:"index"`
	// Roof carries the extraction geometry (energies stay zero until
	// the roof is planned).
	Roof pvfloor.RoofReport `json:"roof"`
	// Run carries the planning outcome (roof-planned only).
	Run *RunReport `json:"run,omitempty"`
}

// districtEvent flattens a pvfloor district progress event.
func districtEvent(ev pvfloor.DistrictEvent) DistrictRoofEvent {
	out := DistrictRoofEvent{
		Event: string(ev.Kind),
		Index: ev.Index,
		Roof: pvfloor.RoofReport{
			ID:            ev.Roof.ID,
			Rect:          pvfloor.NewRectReport(ev.Roof.Rect),
			Cells:         ev.Roof.Cells,
			SuitableCells: ev.Roof.Suitable.Count(),
			SlopeDeg:      ev.Roof.Plane.SlopeDeg,
			AspectDeg:     ev.Roof.Plane.AspectDeg,
			FitRMSM:       ev.Roof.FitRMSM,
			MeanHeightM:   ev.Roof.MeanHeightM,
			Modules:       ev.Modules,
			Skipped:       ev.Skipped,
		},
	}
	if ev.Kind == pvfloor.DistrictRoofPlanned {
		rep := batchEvent(ev.Run).RunReport
		rep.Modules = ev.Modules
		out.Run = &rep
	}
	return out
}

// CityTileEvent is one NDJSON line of a city stream's tile
// lifecycle: a work tile opening ("tile-started") or closing
// ("tile-finished"), with its core and materialised window in city
// cells.
type CityTileEvent struct {
	Event  string             `json:"event"`
	Tile   int                `json:"tile"`
	Tiles  int                `json:"tiles"`
	Core   pvfloor.RectReport `json:"core"`
	Window pvfloor.RectReport `json:"window"`
}

// CityRoofEvent is one NDJSON line of a city stream's roof progress:
// the district roof event with its owning work tile, Rect in city
// cells. Index stays tile-local — city-wide IDs exist only in the
// final result.
type CityRoofEvent struct {
	DistrictRoofEvent
	Tile int `json:"tile"`
}

// cityEvent flattens a pvfloor city progress event into its NDJSON
// line type.
func cityEvent(ev pvfloor.CityEvent) any {
	switch ev.Kind {
	case pvfloor.CityTileStarted, pvfloor.CityTileFinished:
		return CityTileEvent{
			Event: string(ev.Kind), Tile: ev.Tile, Tiles: ev.Tiles,
			Core: pvfloor.NewRectReport(ev.Core), Window: pvfloor.NewRectReport(ev.Window),
		}
	default:
		return CityRoofEvent{DistrictRoofEvent: districtEvent(ev.DistrictEvent), Tile: ev.Tile}
	}
}

// CityResultEvent is the final line of a city stream. The City
// payload is the same pvfloor.CityReport struct that cmd/pvdistrict
// -city -json prints — byte-equivalent by construction.
type CityResultEvent struct {
	Event     string             `json:"event"` // "result"
	ElapsedMS float64            `json:"elapsed_ms"`
	City      pvfloor.CityReport `json:"city"`
}

// DistrictResultEvent is the final line of a district stream. The
// District payload is the same pvfloor.DistrictReport struct that
// cmd/pvdistrict -json prints — byte-equivalent by construction.
type DistrictResultEvent struct {
	Event     string                 `json:"event"` // "result"
	ElapsedMS float64                `json:"elapsed_ms"`
	District  pvfloor.DistrictReport `json:"district"`
}

// ErrorEvent terminates a stream that cannot complete (cancellation,
// pipeline failure). Clients treat a stream without a "result" line
// as failed even if they miss this event.
type ErrorEvent struct {
	Event string `json:"event"` // "error"
	Error string `json:"error"`
}

func errorEvent(err error) ErrorEvent {
	return ErrorEvent{Event: "error", Error: err.Error()}
}

// ---- plain JSON helpers ----

// ErrorDetail is the one error shape of the whole /v1 surface
// (including the blob mount): {"error":{"code","message"}}. Code is a
// stable machine-readable slug derived from the status; Message is
// human-readable detail.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error ErrorDetail `json:"error"`
}

// errorCode maps a status to its stable error-code slug. Every /v1
// endpoint answers errors through this table, so clients parse one
// shape with one vocabulary everywhere.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestTimeout:
		return "client_closed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, errorCode(status), err)
}

func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// writeBusy maps pool admission failures: queue overflow becomes 503
// (code "busy") with a Retry-After computed from the observed run
// times and the backlog ahead, a context cancelled while queued
// becomes 499-style client-closed (408 is the closest standard code).
func (s *Server) writeBusy(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", strconv.Itoa(s.pool.retryAfterSeconds()))
		writeErrorCode(w, http.StatusServiceUnavailable, "busy", err)
		return
	}
	writeError(w, http.StatusRequestTimeout, err)
}
