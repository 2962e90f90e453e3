package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	pvfloor "repro"
)

// decodeStrict decodes data the way Server.decode does: one JSON value,
// unknown fields rejected.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// checkModules reports a module count outside the documented bounds:
// a positive multiple of 8, or 0 where the engine auto-sizes.
func checkModules(t *testing.T, what string, n int, autoOK bool) {
	t.Helper()
	if n == 0 && autoOK {
		return
	}
	if n < 8 || n%8 != 0 {
		t.Fatalf("%s accepted modules %d", what, n)
	}
}

// checkOptimizer reports an optimizer budget outside its caps.
func checkOptimizer(t *testing.T, what string, oc pvfloor.OptimizerConfig) {
	t.Helper()
	if oc.Iterations < 0 || oc.Iterations > maxIterations {
		t.Fatalf("%s accepted iterations %d", what, oc.Iterations)
	}
	if oc.Restarts < 0 || oc.Restarts > maxRestarts {
		t.Fatalf("%s accepted restarts %d", what, oc.Restarts)
	}
}

// FuzzRequestConfig attacks the request → config mapping: arbitrary
// bytes decoded strictly as a RunRequest, DistrictRequest and
// CityRequest go through validateTileChoice, runConfig, districtConfig
// and cityConfig. None may panic, and every accepted config must lie
// inside the documented bounds: module counts on the 8-string grid,
// optimizer iterations and restarts and city tile retries within their
// caps, and non-negative tile sizes, workers and durations.
func FuzzRequestConfig(f *testing.F) {
	for _, tc := range requestValidationCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"scenario":"residential","modules":16,"optimizer":{"strategy":"multistart","restarts":4}}`))
	f.Add([]byte(`{"demo":true,"modules":8,"tile_cells":80,"tile_retries":2,"backoff_ms":10}`))
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rr RunRequest
		if decodeStrict(data, &rr) == nil {
			if cfg, err := s.runConfig(rr); err == nil {
				if cfg.Scenario == nil {
					t.Fatal("run config accepted without a scenario")
				}
				checkModules(t, "run", cfg.Modules, false)
				checkOptimizer(t, "run", cfg.Optimizer)
			}
		}
		var dr DistrictRequest
		if decodeStrict(data, &dr) == nil {
			_ = dr.validateTileChoice()
			if cfg, err := s.districtConfig(dr); err == nil {
				checkModules(t, "district", cfg.Modules, true)
				checkOptimizer(t, "district", cfg.Optimizer)
			}
		}
		var cr CityRequest
		if decodeStrict(data, &cr) == nil {
			_ = cr.validateTileChoice()
			if cfg, err := s.cityConfig(cr); err == nil {
				checkModules(t, "city", cfg.Modules, true)
				checkOptimizer(t, "city", cfg.Optimizer)
				switch {
				case cfg.TileRetries < 0 || cfg.TileRetries > maxTileRetries:
					t.Fatalf("city accepted tile_retries %d", cfg.TileRetries)
				case cfg.TileCells < 0 || cfg.TileWorkers < 0:
					t.Fatalf("city accepted tile_cells %d, tile_workers %d", cfg.TileCells, cfg.TileWorkers)
				case cfg.TileTimeout < 0 || cfg.TileTimeout > maxTileDurationMS*time.Millisecond:
					t.Fatalf("city accepted tile timeout %v", cfg.TileTimeout)
				case cfg.Backoff < 0 || cfg.Backoff > maxTileDurationMS*time.Millisecond:
					t.Fatalf("city accepted backoff %v", cfg.Backoff)
				}
			}
		}
	})
}
