package horizon_test

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/solar/horizon"
)

// TestKernelMatchesReferenceWalkRoof1 holds the production march to
// the oracle walk, bit for bit, on a realistic surface: a six-row strip
// of the Roof 1 scenario's roof rect, across a pipe run and between
// antenna poles, under the fast and the default options. Random
// surfaces seldom let a ray stop on its octant table; on this strip
// about two thirds of the rays do.
func TestKernelMatchesReferenceWalkRoof1(t *testing.T) {
	sc, err := scenario.Roof1()
	if err != nil {
		t.Fatal(err)
	}
	r, roof := sc.Scene.Raster, sc.Scene.RoofRect
	strip := geom.Rect{X0: roof.X0, Y0: roof.Y0 + 19, X1: roof.X1, Y1: roof.Y0 + 25}
	for _, tc := range []struct {
		name string
		opts horizon.Options
	}{{"fast", scenario.FastHorizonOptions()}, {"default", horizon.Options{}}} {
		t.Run(tc.name, func(t *testing.T) {
			want := horizon.BuildRef(r, strip, tc.opts)
			m, err := horizon.BuildRegions(r, []geom.Rect{strip}, tc.opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot()
			for i := range want.Tan {
				if math.Float32bits(got.Tan[i]) != math.Float32bits(want.Tan[i]) {
					t.Fatalf("tan[%d] = %v, oracle %v", i, got.Tan[i], want.Tan[i])
				}
			}
			for i := range want.SVF {
				if math.Float32bits(got.SVF[i]) != math.Float32bits(want.SVF[i]) {
					t.Fatalf("svf[%d] = %v, oracle %v", i, got.SVF[i], want.SVF[i])
				}
			}
		})
	}
}
