package pvfloor

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/solar/horizon"
)

// This file is the pvfloor slice of the resilience test layer: tile
// retry with observed backoff, graceful degradation on exhausted
// retries, drain + checkpoint + resume equivalence, and corrupt-record
// recovery. The process-kill variant lives in city_kill_test.go.

// cityReportJSON flattens a result to its canonical report bytes —
// the byte-equality currency of the resume tests.
func cityReportJSON(t *testing.T, cr *CityResult) []byte {
	t.Helper()
	raw, err := json.Marshal(NewCityReport(cr))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// countingCheckpoint wraps a CityCheckpoint and counts traffic, so
// tests can assert which tiles were replayed vs re-run.
type countingCheckpoint struct {
	inner CityCheckpoint

	mu      sync.Mutex
	lookups int
	hits    int
	commits int
}

func (c *countingCheckpoint) Lookup(tile int) (*TileRecord, error) {
	rec, err := c.inner.Lookup(tile)
	c.mu.Lock()
	c.lookups++
	if rec != nil {
		c.hits++
	}
	c.mu.Unlock()
	return rec, err
}

func (c *countingCheckpoint) Commit(tile int, rec *TileRecord) error {
	c.mu.Lock()
	c.commits++
	c.mu.Unlock()
	return c.inner.Commit(tile, rec)
}

// faultHalo keeps the four tiles' windows of the neighborhood fixture
// distinct, so faultySource can tell the tiles apart; the default halo
// clips every window to the whole grid.
const faultHalo = 40

// faultySource wraps a CitySource and consults fault before every
// Window call. RunCity reads a tile's window once per attempt, so
// attempt counts the calls per window (1-based), and a non-nil error
// fails that attempt as if the pipeline had.
type faultySource struct {
	CitySource
	fault func(window geom.Rect, attempt int) error

	mu    sync.Mutex
	calls map[geom.Rect]int
}

func (s *faultySource) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	s.mu.Lock()
	if s.calls == nil {
		s.calls = map[geom.Rect]int{}
	}
	s.calls[rect]++
	attempt := s.calls[rect]
	s.mu.Unlock()
	if err := s.fault(rect, attempt); err != nil {
		return nil, nil, err
	}
	return s.CitySource.Window(rect)
}

// TestCityTileRetrySucceeds pins the retry contract: a tile failing
// its first N−1 attempts succeeds on attempt N, the capped
// exponential backoff is observed between attempts, and the final
// fleet is identical to a fault-free run.
func TestCityTileRetrySucceeds(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	baseline, err := RunCity(CityConfig{
		Source:    &gis.RasterSource{Raster: tile},
		TileCells: 80,
		HaloCells: faultHalo,
	})
	if err != nil {
		t.Fatal(err)
	}

	const backoff = 20 * time.Millisecond
	var mu sync.Mutex
	var stamps []time.Time
	flaky := baseline.Tiles[1].Window
	city, err := RunCity(CityConfig{
		Source: &faultySource{
			CitySource: &gis.RasterSource{Raster: tile},
			fault: func(window geom.Rect, attempt int) error {
				if window != flaky {
					return nil
				}
				mu.Lock()
				stamps = append(stamps, time.Now())
				mu.Unlock()
				if attempt <= 2 {
					return fmt.Errorf("injected flake (attempt %d)", attempt)
				}
				return nil
			},
		},
		TileCells:   80,
		HaloCells:   faultHalo,
		TileRetries: 2,
		Backoff:     backoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 3 {
		t.Fatalf("tile 1 ran %d attempts, want 3", len(stamps))
	}
	if g1 := stamps[1].Sub(stamps[0]); g1 < backoff {
		t.Errorf("first retry after %v, want >= %v backoff", g1, backoff)
	}
	if g2 := stamps[2].Sub(stamps[1]); g2 < 2*backoff {
		t.Errorf("second retry after %v, want >= %v (doubled backoff)", g2, 2*backoff)
	}
	if a := city.Tiles[1].Attempts; a != 3 {
		t.Errorf("tile 1 recorded %d attempts, want 3", a)
	}
	for _, i := range []int{0, 2, 3} {
		if a := city.Tiles[i].Attempts; a != 1 {
			t.Errorf("healthy tile %d recorded %d attempts, want 1", i, a)
		}
	}
	// The fleet itself is untouched by the flake: same roofs, same
	// energies, same ranking.
	rep, base := NewCityReport(city), NewCityReport(baseline)
	rep.Tiles, base.Tiles = nil, nil // attempts differ by design
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(base)
	if string(got) != string(want) {
		t.Errorf("retried run's fleet differs from fault-free run:\ngot:  %s\nwant: %s", got, want)
	}
	// The report surfaces the retry count.
	full := cityReportJSON(t, city)
	if !strings.Contains(string(full), `"attempts":3`) {
		t.Errorf("city report does not surface the retry count: %s", full)
	}
}

// TestCityTileExhaustedRetriesDegrades pins graceful degradation: a
// tile that exhausts its retries surfaces as failed — with its error,
// in result, report and table — while every other tile's roofs
// complete and rank normally.
func TestCityTileExhaustedRetriesDegrades(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	baseline, err := RunCity(CityConfig{
		Source:    &gis.RasterSource{Raster: tile},
		TileCells: 80,
		HaloCells: faultHalo,
	})
	if err != nil {
		t.Fatal(err)
	}

	broken := baseline.Tiles[1].Window
	city, err := RunCity(CityConfig{
		Source: &faultySource{
			CitySource: &gis.RasterSource{Raster: tile},
			fault: func(window geom.Rect, attempt int) error {
				if window == broken {
					return errors.New("injected permanent fault")
				}
				return nil
			},
		},
		TileCells:   80,
		HaloCells:   faultHalo,
		TileRetries: 1,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("exhausted tile must degrade, not abort: %v", err)
	}
	ti := city.Tiles[1]
	if !strings.Contains(ti.Failed, "injected permanent fault") || ti.Attempts != 2 {
		t.Fatalf("failed tile recorded as %+v, want the injected error after 2 attempts", ti)
	}
	if ti.Roofs != 0 {
		t.Errorf("failed tile claims %d roofs", ti.Roofs)
	}
	lost := baseline.Tiles[1].Roofs
	if lost == 0 {
		t.Fatal("fixture tile 1 owns no roofs; the test has lost its point")
	}
	if len(city.Plans) != len(baseline.Plans)-lost {
		t.Errorf("degraded run has %d plans, want %d (baseline %d minus %d lost)",
			len(city.Plans), len(baseline.Plans)-lost, len(baseline.Plans), lost)
	}
	for i := range city.Plans {
		if !city.Plans[i].Planned() {
			t.Errorf("surviving roof %d unplanned", city.Plans[i].Roof.ID)
		}
	}
	rep := string(cityReportJSON(t, city))
	if !strings.Contains(rep, `"failed":"injected permanent fault"`) {
		t.Errorf("report does not surface the tile failure: %s", rep)
	}
	if tbl := CityTable(city); !strings.Contains(tbl, "WARNING: 1 tile(s) failed") {
		t.Errorf("table does not warn about the failed tile:\n%s", tbl)
	}
}

// TestCityDrainCheckpointResume pins the graceful-interruption path
// end to end: a drained run checkpoints every finished tile and
// returns ErrInterrupted; a resumed run replays exactly those tiles
// (no recomputation — asserted via the horizon build counter), runs
// only the unfinished ones, and stitches a report byte-equal to an
// uninterrupted run's.
func TestCityDrainCheckpointResume(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	cfg := CityConfig{
		Source:    &gis.RasterSource{Raster: tile},
		TileCells: 80, // 4 tiles
	}
	b0 := horizon.BuildCount()
	baseline, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullBuilds := horizon.BuildCount() - b0
	if fullBuilds == 0 {
		t.Fatal("baseline run built no horizons; the build-count assertion has lost its teeth")
	}
	wantReport := cityReportJSON(t, baseline)

	ckpt, err := NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := &countingCheckpoint{inner: ckpt}
	drain := make(chan struct{})
	var closeOnce sync.Once
	interrupted := cfg
	interrupted.TileWorkers = 1
	interrupted.Checkpoint = first
	interrupted.Drain = drain
	interrupted.Progress = func(ev CityEvent) {
		if ev.Kind == CityTileFinished {
			closeOnce.Do(func() { close(drain) })
		}
	}
	b1 := horizon.BuildCount()
	if _, err := RunCity(interrupted); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("drained run returned %v, want ErrInterrupted", err)
	}
	partialBuilds := horizon.BuildCount() - b1
	if first.commits == 0 || first.commits >= 4 {
		t.Fatalf("drained run committed %d tiles, want some but not all", first.commits)
	}

	second := &countingCheckpoint{inner: ckpt}
	resumed := cfg
	resumed.Checkpoint = second
	b2 := horizon.BuildCount()
	city, err := RunCity(resumed)
	if err != nil {
		t.Fatal(err)
	}
	resumeBuilds := horizon.BuildCount() - b2
	if got := cityReportJSON(t, city); string(got) != string(wantReport) {
		t.Errorf("resumed report differs from uninterrupted run:\ngot:  %s\nwant: %s", got, wantReport)
	}
	if second.hits != first.commits {
		t.Errorf("resume replayed %d tiles, want the %d committed before the drain", second.hits, first.commits)
	}
	if second.commits != 4-first.commits {
		t.Errorf("resume ran %d tiles live, want %d", second.commits, 4-first.commits)
	}
	// Replayed tiles compute nothing: the two runs' horizon marches
	// must partition the uninterrupted run's.
	if partialBuilds+resumeBuilds != fullBuilds {
		t.Errorf("interrupted+resumed runs built %d+%d horizons, want %d total (replay must not recompute)",
			partialBuilds, resumeBuilds, fullBuilds)
	}
	// A third run over the complete checkpoint replays everything.
	third := &countingCheckpoint{inner: ckpt}
	replayAll := cfg
	replayAll.Checkpoint = third
	b3 := horizon.BuildCount()
	replayed, err := RunCity(replayAll)
	if err != nil {
		t.Fatal(err)
	}
	if d := horizon.BuildCount() - b3; d != 0 {
		t.Errorf("full replay ray-marched %d horizons, want 0", d)
	}
	if third.hits != 4 || third.commits != 0 {
		t.Errorf("full replay hit %d records and committed %d, want 4/0", third.hits, third.commits)
	}
	if got := cityReportJSON(t, replayed); string(got) != string(wantReport) {
		t.Errorf("fully replayed report differs from uninterrupted run")
	}
}

// TestCityCorruptCheckpointRecordReruns pins torn-record recovery: a
// record truncated mid-file (the torn write the atomic protocol
// prevents, simulated directly) reads as absent, its tile re-runs,
// and the resumed report is still byte-equal.
func TestCityCorruptCheckpointRecordReruns(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	dir := t.TempDir()
	ckpt, err := NewDirCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CityConfig{
		Source:     &gis.RasterSource{Raster: tile},
		TileCells:  80,
		Checkpoint: ckpt,
	}
	baseline, err := RunCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport := cityReportJSON(t, baseline)

	// Tear one record and garbage another.
	recs, err := filepath.Glob(filepath.Join(dir, "tile-*.json"))
	if err != nil || len(recs) != 4 {
		t.Fatalf("checkpoint holds %d records (err %v), want 4", len(recs), err)
	}
	raw, err := os.ReadFile(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recs[1], raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recs[2], []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	counting := &countingCheckpoint{inner: ckpt}
	resumed := cfg
	resumed.Checkpoint = counting
	city, err := RunCity(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if counting.hits != 2 || counting.commits != 2 {
		t.Errorf("resume hit %d records and re-ran %d tiles, want 2/2", counting.hits, counting.commits)
	}
	if got := cityReportJSON(t, city); string(got) != string(wantReport) {
		t.Errorf("resume over corrupt records differs from baseline:\ngot:  %s\nwant: %s", got, wantReport)
	}
}

// TestCityCheckpointCommitFailureAborts pins the durability contract:
// a Commit that cannot persist (injected fsync failure) aborts the
// run instead of letting an unrecorded tile count as done.
func TestCityCheckpointCommitFailureAborts(t *testing.T) {
	tile := loadNeighborhoodTile(t)
	inj := faultfs.Wrap(faultfs.OS())
	ckpt, err := NewDirCheckpointFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNthSync(1)
	_, err = RunCity(CityConfig{
		Source:     &gis.RasterSource{Raster: tile},
		TileCells:  80,
		Checkpoint: ckpt,
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("run with failing checkpoint returned %v, want the injected commit failure", err)
	}
}

// TestDirCheckpointRoundTrip pins the record codec symmetry on its
// own, away from the pipeline.
func TestDirCheckpointRoundTrip(t *testing.T) {
	ckpt, err := NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := ckpt.Lookup(7); err != nil || rec != nil {
		t.Fatalf("lookup before commit = (%v, %v), want (nil, nil)", rec, err)
	}
	in := &TileRecord{
		Version: tileRecordVersion,
		Info:    CityTileInfo{Index: 7, Attempts: 2, Roofs: 1, GroundZ: 3.25},
		Roofs: []TileRoofRecord{{
			Modules: 16,
			Outcome: PlanOutcome{Planned: true, ProposedMWh: 1.0625, TraditionalMWh: 0.875, GainPct: 21.428571428571427},
		}},
	}
	if err := ckpt.Commit(7, in); err != nil {
		t.Fatal(err)
	}
	out, err := ckpt.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Info != in.Info || len(out.Roofs) != 1 || out.Roofs[0].Outcome != in.Roofs[0].Outcome {
		t.Fatalf("round trip mangled the record: %+v", out)
	}
	// A record filed under the wrong tile index is not trusted.
	if err := ckpt.Commit(8, in); err != nil {
		t.Fatal(err)
	}
	if rec, err := ckpt.Lookup(8); err != nil || rec != nil {
		t.Fatalf("mis-indexed record lookup = (%v, %v), want (nil, nil)", rec, err)
	}
}
