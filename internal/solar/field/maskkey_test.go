package field_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
)

// TestHorizonArtifactKeyedByMask: the per-roof horizon marches only
// the suitable cells, so its artifact key names the mask. Two masks
// over Residential's raster and rect share one cache; the narrower
// mask (SuitableArea(1), one cell of setback) runs first, so a key
// without the mask would serve its map to the wider SuitableArea(0)
// and the ring between them would read +0 horizons. Each mask's cold
// and warm statistics must equal its own cache-less run bit for bit,
// and a format-1 artifact planted under the old key is a clean miss.
func TestHorizonArtifactKeyedByMask(t *testing.T) {
	res, err := scenario.Residential()
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.FastGrid()
	masks := []*geom.Mask{res.Scene.SuitableArea(1), res.Scene.SuitableArea(0)}
	if masks[0].Count() >= masks[1].Count() {
		t.Fatalf("setback mask has %d cells, the plain one %d: want fewer", masks[0].Count(), masks[1].Count())
	}
	run := func(mask *geom.Mask, cache *fieldcache.Cache) (*field.Evaluator, []byte) {
		t.Helper()
		sc := *res
		sc.Suitable = mask
		ev, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := ev.CachedStats()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return ev, b
	}
	want := make([][]byte, len(masks))
	for i, m := range masks {
		_, want[i] = run(m, nil)
	}

	cache, err := fieldcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The format-1 key named the raster, the rect and the unresolved
	// options, not the mask; its full-rect map must not be read.
	o := scenario.FastHorizonOptions()
	v1 := fmt.Sprintf("horizon-v1|%s|%v|%d|%x|%x|%x|%x|%x",
		res.Scene.Raster.ContentHash(), res.Scene.RoofRect,
		o.Sectors, o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM)
	full, err := horizon.Build(res.Scene.Raster, res.Scene.RoofRect, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store("horizon", v1, full); err != nil {
		t.Fatal(err)
	}

	for _, warm := range []bool{false, true} {
		for i, m := range masks {
			before := horizon.BuildCount()
			ev, got := run(m, cache)
			if ev.HorizonFromCache() != warm {
				t.Errorf("mask %d warm=%v: horizon restored = %v", i, warm, ev.HorizonFromCache())
			}
			if marched := horizon.BuildCount() - before; warm == (marched != 0) {
				t.Errorf("mask %d warm=%v: %d horizon marches", i, warm, marched)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("mask %d warm=%v: statistics differ from the cache-less run", i, warm)
			}
		}
	}
	if m := cache.Metrics(); m.Corrupt != 0 {
		t.Errorf("cache metrics %+v: want no corrupt artifact", m)
	}
}
