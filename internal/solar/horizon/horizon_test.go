package horizon

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// flatRasterWithWall builds a 40x40 flat raster (cell 0.2 m) with a
// 5 m tall wall along columns x=30..31 (east side).
func flatRasterWithWall(t *testing.T) *dsm.Raster {
	t.Helper()
	r, err := dsm.NewRaster(40, 40, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRectTo(geom.Rect{X0: 30, Y0: 0, X1: 32, Y1: 40}, 5)
	return r
}

func TestBuildValidation(t *testing.T) {
	r := flatRasterWithWall(t)
	if _, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 10}, Options{}); err == nil {
		t.Error("region outside raster must be rejected")
	}
	if _, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{Sectors: 2}); err == nil {
		t.Error("too few sectors must be rejected")
	}
	if _, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{FarStepM: -1}); err == nil {
		t.Error("negative step must be rejected")
	}
}

func TestWallHorizonGeometry(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := Build(r, region, Options{Sectors: 64})
	if err != nil {
		t.Fatal(err)
	}

	// A cell 4 m west of the wall (x=10 → wall at x=30, distance
	// ≈ 20 cells ≈ 4 m): expected horizon tangent toward east ≈ 5/4.
	cell := geom.Cell{X: 10, Y: 20}
	east := math.Pi / 2
	tanEast := m.HorizonTan(cell, east)
	wantTan := 5.0 / 4.0
	if math.Abs(tanEast-wantTan) > 0.15*wantTan {
		t.Errorf("horizon tangent toward wall = %.3f, want ≈ %.3f", tanEast, wantTan)
	}
	// Toward the west there is nothing: horizon 0.
	if tanWest := m.HorizonTan(cell, 3*math.Pi/2); tanWest != 0 {
		t.Errorf("horizon tangent west = %.3f, want 0", tanWest)
	}

	// Shadow test: sun in the east below the wall angle → shadowed;
	// above → lit; any sun in the west → lit.
	low := math.Atan(wantTan) - 0.15
	high := math.Atan(wantTan) + 0.15
	if !m.Shadowed(cell, east, low) {
		t.Error("low eastern sun must be shadowed by the wall")
	}
	if m.Shadowed(cell, east, high) {
		t.Error("high eastern sun must clear the wall")
	}
	if m.Shadowed(cell, 3*math.Pi/2, 0.05) {
		t.Error("western sun must not be shadowed")
	}
	if !m.Shadowed(cell, east, -0.01) {
		t.Error("sun below horizon is always shadowed")
	}
}

func TestShadowDistanceFalloff(t *testing.T) {
	// Cells farther from the wall see a lower horizon.
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := Build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	east := math.Pi / 2
	near := m.HorizonTan(geom.Cell{X: 25, Y: 20}, east)
	far := m.HorizonTan(geom.Cell{X: 2, Y: 20}, east)
	if !(near > far && far > 0) {
		t.Errorf("horizon should fall with distance: near=%.3f far=%.3f", near, far)
	}
}

func TestSVFBehaviour(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := Build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// SVF near the wall is depressed; far from the wall ≈ 1.
	nearSVF := m.SVF(geom.Cell{X: 28, Y: 20})
	farSVF := m.SVF(geom.Cell{X: 1, Y: 20})
	if !(nearSVF < farSVF) {
		t.Errorf("SVF should drop near the wall: near=%.3f far=%.3f", nearSVF, farSVF)
	}
	if farSVF < 0.9 || farSVF > 1.0 {
		t.Errorf("open-field SVF = %.3f, want ≈ 1", farSVF)
	}
	if nearSVF <= 0 || nearSVF > 1 {
		t.Errorf("SVF out of (0,1]: %.3f", nearSVF)
	}
}

func TestOpenFlatFieldUnshadowed(t *testing.T) {
	r, err := dsm.NewRaster(30, 30, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(r, geom.Rect{X0: 5, Y0: 5, X1: 25, Y1: 25}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		az := float64(s) * math.Pi / 4
		if m.Shadowed(geom.Cell{X: 10, Y: 10}, az, 0.01) {
			t.Errorf("flat field shadowed at azimuth %.2f", az)
		}
	}
	if svf := m.SVF(geom.Cell{X: 10, Y: 10}); svf != 1 {
		t.Errorf("flat-field SVF = %.4f, want 1", svf)
	}
}

func TestTiltedPlaneSelfHorizon(t *testing.T) {
	// A 26° south-descending plane: looking north (upslope) from any
	// cell, the surface itself forms a horizon ≈ tan(26°); looking
	// south (downslope) the horizon is 0.
	r, err := dsm.NewRaster(60, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tan26 := math.Tan(26 * math.Pi / 180)
	for y := 0; y < 60; y++ {
		for x := 0; x < 60; x++ {
			r.Set(geom.Cell{X: x, Y: y}, 20-tan26*0.2*float64(y))
		}
	}
	m, err := Build(r, geom.Rect{X0: 20, Y0: 20, X1: 40, Y1: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := geom.Cell{X: 10, Y: 15} // region-local
	north := m.HorizonTan(c, 0)
	south := m.HorizonTan(c, math.Pi)
	if math.Abs(north-tan26) > 0.1*tan26 {
		t.Errorf("upslope self-horizon = %.3f, want ≈ %.3f", north, tan26)
	}
	if south != 0 {
		t.Errorf("downslope horizon = %.3f, want 0", south)
	}
}

func TestSectorQuantisation(t *testing.T) {
	r := flatRasterWithWall(t)
	m, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Options{Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sectors() != 8 {
		t.Fatalf("Sectors = %d", m.Sectors())
	}
	// Azimuth wrapping: -π/2 ≡ 3π/2, 2π+x ≡ x.
	if m.SectorOf(-math.Pi/2) != m.SectorOf(3*math.Pi/2) {
		t.Error("negative azimuth wrap failed")
	}
	if m.SectorOf(2*math.Pi+0.1) != m.SectorOf(0.1) {
		t.Error("over-2π wrap failed")
	}
	// Full circle maps within range.
	for az := -10.0; az < 10; az += 0.37 {
		s := m.SectorOf(az)
		if s < 0 || s >= 8 {
			t.Fatalf("sector %d out of range for azimuth %.2f", s, az)
		}
	}
}

func TestShadowedIdxAgreesWithShadowed(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := Build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, az := range []float64{0, math.Pi / 2, math.Pi, 4.7} {
		for _, elev := range []float64{0.05, 0.5, 1.2} {
			for _, c := range []geom.Cell{{X: 3, Y: 3}, {X: 25, Y: 20}, {X: 0, Y: 39}} {
				idx := c.Y*region.W() + c.X
				a := m.Shadowed(c, az, elev)
				b := m.ShadowedIdx(idx, m.SectorOf(az), math.Tan(elev))
				if a != b {
					t.Fatalf("Shadowed disagreement at %v az=%.2f elev=%.2f: %v vs %v", c, az, elev, a, b)
				}
				if m.SVF(c) != m.SVFIdx(idx) {
					t.Fatalf("SVF disagreement at %v", c)
				}
			}
		}
	}
}

func TestThinPipeResolvedInNearField(t *testing.T) {
	// A 0.4 m wide, 0.6 m tall pipe 2 m away must be seen by the
	// near-field march (paper Roof 1 is dominated by pipe shading).
	r, err := dsm.NewRaster(60, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRectTo(geom.Rect{X0: 40, Y0: 0, X1: 42, Y1: 60}, 0.6)
	m, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 60}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := geom.Cell{X: 30, Y: 30} // 10 cells = 2 m west of pipe
	tanEast := m.HorizonTan(cell, math.Pi/2)
	// Eye at 0.05 m: expected tangent ≈ (0.6-0.05)/2.0 ≈ 0.27.
	if tanEast < 0.15 || tanEast > 0.35 {
		t.Errorf("pipe horizon tangent = %.3f, want ≈ 0.27", tanEast)
	}
}

func TestShadowMaskSnapshot(t *testing.T) {
	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}
	m, err := Build(r, region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-height eastern sun (1.0 rad, tan ≈ 1.56): the cell hugging
	// the wall (horizon tan ≈ 12) stays shadowed, the far cell
	// (5 m wall at 5.8 m → tan ≈ 0.85) is lit.
	mask := m.ShadowMask(math.Pi/2, 1.0)
	if mask.W() != 30 || mask.H() != 40 {
		t.Fatalf("mask dims %dx%d", mask.W(), mask.H())
	}
	if !mask.Get(geom.Cell{X: 28, Y: 20}) {
		t.Error("cell hugging the wall should be shadowed")
	}
	if mask.Get(geom.Cell{X: 1, Y: 20}) {
		t.Error("far cell should be lit at tan(1.0 rad) over a 5 m wall 5.8 m away")
	}
	// Consistency with the per-cell test.
	for _, c := range []geom.Cell{{X: 2, Y: 2}, {X: 15, Y: 30}, {X: 29, Y: 0}} {
		if mask.Get(c) != m.Shadowed(c, math.Pi/2, 1.0) {
			t.Fatalf("mask disagrees with Shadowed at %v", c)
		}
	}
	// Night: everything shadowed.
	night := m.ShadowMask(0, -0.1)
	if night.Count() != 30*40 {
		t.Error("night mask must be fully set")
	}
	// High sun: nothing shadowed.
	noon := m.ShadowMask(math.Pi, 1.4)
	if noon.Count() != 0 {
		t.Errorf("zenith sun mask has %d shadowed cells", noon.Count())
	}
}

func TestShadowMonotoneInElevationProperty(t *testing.T) {
	// If a cell is lit at elevation e, it stays lit at any higher
	// elevation (same azimuth) — the fundamental horizon invariant.
	r := flatRasterWithWall(t)
	m, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(cx, cy uint8, azRaw, e1Raw, e2Raw uint16) bool {
		c := geom.Cell{X: int(cx) % 30, Y: int(cy) % 40}
		az := float64(azRaw) / 65535 * 2 * math.Pi
		e1 := float64(e1Raw) / 65535 * 1.5
		e2 := float64(e2Raw) / 65535 * 1.5
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		// e2 >= e1: shadowed at e2 implies shadowed at e1.
		if m.Shadowed(c, az, e2) && !m.Shadowed(c, az, e1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// flatRaster builds a w×h flat raster at the paper's 0.2 m pitch.
func flatRaster(t *testing.T, w, h int) *dsm.Raster {
	t.Helper()
	r, err := dsm.NewRaster(w, h, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBuildRegionsSliceMatchesBuild pins the tentpole equivalence at
// the lowest level: a per-roof view sliced out of a tile-level
// BuildRegions map must be bit-identical to a direct Build over the
// same rect — for disjoint regions, overlapping regions, and
// sub-rects of a region — while ray-marching only once.
func TestBuildRegionsSliceMatchesBuild(t *testing.T) {
	r := flatRasterWithWall(t)
	r.MaxAbove(geom.Rect{X0: 8, Y0: 30, X1: 11, Y1: 33}, 3)
	opts := Options{Sectors: 16, MaxDistanceM: 6}
	regions := []geom.Rect{
		{X0: 2, Y0: 2, X1: 14, Y1: 12},
		{X0: 18, Y0: 20, X1: 28, Y1: 36},
		{X0: 10, Y0: 8, X1: 20, Y1: 24}, // overlaps both
	}
	before := BuildCount()
	tile, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := BuildCount() - before; got != 1 {
		t.Fatalf("BuildRegions incremented BuildCount by %d, want 1", got)
	}
	wantBBox := regions[0].Union(regions[1]).Union(regions[2])
	if tile.Region() != wantBBox {
		t.Fatalf("tile region %v, want bbox %v", tile.Region(), wantBBox)
	}
	checks := append([]geom.Rect{}, regions...)
	checks = append(checks, geom.Rect{X0: 4, Y0: 4, X1: 10, Y1: 10}) // sub-rect of regions[0]
	for _, reg := range checks {
		view, err := tile.Slice(reg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Build(r, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if view.Region() != reg || view.Sectors() != direct.Sectors() {
			t.Fatalf("slice %v shape mismatch", reg)
		}
		for idx := 0; idx < reg.Area(); idx++ {
			if view.SVFIdx(idx) != direct.SVFIdx(idx) {
				t.Fatalf("region %v cell %d: sliced SVF %v != built %v",
					reg, idx, view.SVFIdx(idx), direct.SVFIdx(idx))
			}
			vr, dr := view.TanRow(idx), direct.TanRow(idx)
			for s := range vr {
				if vr[s] != dr[s] {
					t.Fatalf("region %v cell %d sector %d: sliced tan differs from direct build", reg, idx, s)
				}
			}
		}
	}
	// Slicing never counts as a build.
	if got := BuildCount() - before; got != 1+uint64(len(checks)) {
		t.Fatalf("unexpected BuildCount delta %d (direct builds only)", got)
	}
}

// TestBuildRegionsWorkerDeterminism: the parallel tile build writes
// disjoint per-cell storage, so any worker count is bit-identical.
func TestBuildRegionsWorkerDeterminism(t *testing.T) {
	r := flatRasterWithWall(t)
	regions := []geom.Rect{{X0: 0, Y0: 0, X1: 20, Y1: 20}, {X0: 12, Y0: 24, X1: 30, Y1: 40}}
	opts := Options{Sectors: 8, MaxDistanceM: 4}
	ref, err := BuildRegions(r, regions, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		m, err := BuildRegions(r, regions, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		rs, ms := ref.Snapshot(), m.Snapshot()
		if rs.Region != ms.Region || rs.Sectors != ms.Sectors {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range rs.Tan {
			if rs.Tan[i] != ms.Tan[i] {
				t.Fatalf("workers=%d: tan[%d] differs", workers, i)
			}
		}
		for i := range rs.SVF {
			if rs.SVF[i] != ms.SVF[i] {
				t.Fatalf("workers=%d: svf[%d] differs", workers, i)
			}
		}
	}
}

func TestBuildRegionsValidation(t *testing.T) {
	r := flatRaster(t, 20, 20)
	if _, err := BuildRegions(r, nil, Options{}, 1); err == nil {
		t.Error("empty region list accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 5, Y0: 5, X1: 5, Y1: 9}}, Options{}, 1); err == nil {
		t.Error("empty rect accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 0, Y0: 0, X1: 30, Y1: 10}}, Options{}, 1); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	if _, err := BuildRegions(r, []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}}, Options{Sectors: 2}, 1); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestSliceValidation(t *testing.T) {
	r := flatRaster(t, 20, 20)
	m, err := Build(r, geom.Rect{X0: 4, Y0: 4, X1: 16, Y1: 16}, Options{Sectors: 8, MaxDistanceM: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []geom.Rect{
		{X0: 0, Y0: 0, X1: 8, Y1: 8},     // sticks out north-west
		{X0: 10, Y0: 10, X1: 18, Y1: 14}, // sticks out east
		{X0: 6, Y0: 6, X1: 6, Y1: 10},    // empty
	} {
		if _, err := m.Slice(sub); err == nil {
			t.Errorf("slice %v outside region %v accepted", sub, m.Region())
		}
		if m.Covers(sub) {
			t.Errorf("Covers(%v) true for region %v", sub, m.Region())
		}
	}
	if !m.Covers(m.Region()) {
		t.Error("map must cover its own region")
	}
}

// TestBuildOptionsProvenance: maps remember the resolved options they
// were marched with, and slices and binary round trips keep them.
func TestBuildOptionsProvenance(t *testing.T) {
	r := flatRaster(t, 20, 20)
	opts := Options{Sectors: 8, MaxDistanceM: 3}
	resolved := opts.Resolved(r.CellSize())
	if resolved.NearStepM != r.CellSize()/2 || resolved.EyeHeightM != 0.05 {
		t.Fatalf("Resolved did not apply defaults: %+v", resolved)
	}
	m, err := Build(r, geom.Rect{X0: 2, Y0: 2, X1: 18, Y1: 18}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildOptions() != resolved {
		t.Fatalf("BuildOptions %+v, want resolved %+v", m.BuildOptions(), resolved)
	}
	view, err := m.Slice(geom.Rect{X0: 4, Y0: 4, X1: 10, Y1: 10})
	if err != nil {
		t.Fatal(err)
	}
	if view.BuildOptions() != resolved {
		t.Error("slice must inherit the source map's build options")
	}
	if restored := roundTrip(t, view); restored.BuildOptions() != resolved {
		t.Errorf("decoded map options %+v, want %+v", restored.BuildOptions(), resolved)
	}
}

// TestTanRowMatchesHorizonTan: the kernel's row accessor must agree
// with the per-azimuth lookup.
func TestTanRowMatchesHorizonTan(t *testing.T) {
	r := flatRaster(t, 30, 30)
	r.MaxAbove(geom.Rect{X0: 14, Y0: 14, X1: 16, Y1: 16}, 6)
	region := geom.Rect{X0: 2, Y0: 2, X1: 28, Y1: 28}
	m, err := Build(r, region, Options{Sectors: 32, MaxDistanceM: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := geom.Cell{X: 10, Y: 10}
	idx := c.Y*region.W() + c.X
	row := m.TanRow(idx)
	for s := 0; s < m.Sectors(); s++ {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(m.Sectors())
		if want := m.HorizonTan(c, az); float64(row[s]) != want {
			t.Fatalf("sector %d: TanRow %v vs HorizonTan %v", s, row[s], want)
		}
	}
}

// sectorDirsRef, marchCellRef and marchSectorRef are the original
// step-by-step ray walk, kept as the oracle the production kernel is
// held to bit for bit: one AtMetres call per step, no early exit.
func sectorDirsRef(sectors int) (dirX, dirY []float64) {
	dirX = make([]float64, sectors)
	dirY = make([]float64, sectors)
	for s := 0; s < sectors; s++ {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(sectors)
		dirX[s] = math.Sin(az)
		dirY[s] = -math.Cos(az)
	}
	return dirX, dirY
}

func marchCellRef(r *dsm.Raster, cell geom.Cell, dirX, dirY []float64, opts Options, tan []float32) float32 {
	x0, y0 := r.CellCenterMetres(cell)
	z0 := r.At(cell) + opts.EyeHeightM
	var svfSum float64
	for s := range dirX {
		t := marchSectorRef(r, x0, y0, z0, dirX[s], dirY[s], opts)
		tan[s] = float32(t)
		svfSum += 1 / (1 + t*t)
	}
	return float32(svfSum / float64(len(dirX)))
}

func marchSectorRef(r *dsm.Raster, x0, y0, z0, dx, dy float64, opts Options) float64 {
	maxTan := 0.0
	d := opts.NearStepM
	for d <= opts.MaxDistanceM {
		z := r.AtMetres(x0+dx*d, y0+dy*d)
		if t := (z - z0) / d; t > maxTan {
			maxTan = t
		}
		if d < opts.NearFieldM {
			d += opts.NearStepM
		} else {
			d += opts.FarStepM
		}
	}
	return maxTan
}

// buildRef is the original serial Build over the oracle walk.
func buildRef(r *dsm.Raster, region geom.Rect, opts Options) Snapshot {
	opts = opts.withDefaults(r.CellSize())
	s := Snapshot{
		Region:  region,
		Sectors: opts.Sectors,
		Tan:     make([]float32, region.Area()*opts.Sectors),
		SVF:     make([]float32, region.Area()),
	}
	dirX, dirY := sectorDirsRef(opts.Sectors)
	idx := 0
	for y := region.Y0; y < region.Y1; y++ {
		for x := region.X0; x < region.X1; x++ {
			s.SVF[idx] = marchCellRef(r, geom.Cell{X: x, Y: y}, dirX, dirY, opts,
				s.Tan[idx*opts.Sectors:(idx+1)*opts.Sectors])
			idx++
		}
	}
	return s
}

// sameBits reports the first float32 whose bit pattern differs.
func sameBits(got, want []float32) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// nanConeEdges sets NaN along the edges of every octant cone of cell
// c on r: the row and column through c (a minor offset of 0), both
// diagonals (a minor offset equal to the major one) and the lines
// beside them one cell further out (one more). It returns r.
func nanConeEdges(r *dsm.Raster, c geom.Cell) *dsm.Raster {
	for a := -max(r.W(), r.H()); a <= max(r.W(), r.H()); a++ {
		for _, e := range []geom.Cell{
			{X: c.X + a, Y: c.Y}, {X: c.X, Y: c.Y + a},
			{X: c.X + a, Y: c.Y + a}, {X: c.X + a, Y: c.Y - a},
			{X: c.X + a, Y: c.Y + a + 1}, {X: c.X + a, Y: c.Y - a - 1},
			{X: c.X + a + 1, Y: c.Y + a}, {X: c.X + a + 1, Y: c.Y - a},
		} {
			if e != c && r.InBounds(e) {
				r.Set(e, math.NaN())
			}
		}
	}
	return r
}

// TestKernelMatchesReferenceWalk holds the production march — sample
// tables, direct slice sampling, division-free filter, early exits —
// to the original step-by-step walk, bit for bit, on
// seeded random surfaces that exercise every exit path: negative
// elevations, a raster entirely below the datum, NaN cells (one alone,
// and lines of them along the octant cones' edges), a flat raster (the
// eye is above every sample, so each ray stops at once), an eye lifted
// above the highest elevation, an origin-shifted window, rays that run
// off the raster past a tall rim, a tall spike 30 m from the marched
// region on a raster whose sides are not multiples of the 8-cell
// table blocks, and every sector count from 4 to 64: the exact
// diagonals of 4, 12, …, 60 sectors and the near-axis bisectors of
// 6, 10, … among them; six sectors at two origins also march a ray
// whose samples land on cell edges, through the ambiguous entries of
// its sample table. TestKernelMatchesReferenceWalkRoof1 adds the Roof
// 1 scenario raster.
func TestKernelMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	random := func(w, h int, lo, hi float64) *dsm.Raster {
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r.Set(geom.Cell{X: x, Y: y}, lo+(hi-lo)*rng.Float64())
			}
		}
		return r
	}
	fast := Options{Sectors: 32, MaxDistanceM: 40}
	short := Options{Sectors: 16, MaxDistanceM: 6, NearFieldM: 2}

	withNaN := random(24, 20, -1, 3)
	withNaN.Set(geom.Cell{X: 7, Y: 9}, math.NaN())
	window := random(30, 26, -2, 5)
	window.SetOrigin(geom.Cell{X: 137, Y: -41})
	towers := random(28, 28, 0, 0.4)
	towers.SetRectTo(geom.Rect{X0: 20, Y0: 3, X1: 23, Y1: 6}, 9)
	// 150 cells (30 m) east of the region's edge, inside the fast rays'
	// 40 m reach and far outside their first blocks.
	spike := random(203, 45, -0.5, 0.5)
	spike.SetRectTo(geom.Rect{X0: 190, Y0: 20, X1: 192, Y1: 22}, 15)
	rim := random(13, 11, -1, 1)
	rim.SetRectTo(geom.Rect{X0: 12, Y0: 0, X1: 13, Y1: 11}, 4)
	rim.SetRectTo(geom.Rect{X0: 0, Y0: 0, X1: 13, Y1: 1}, 2)
	coneEdges := nanConeEdges(random(33, 29, -1, 1.5), geom.Cell{X: 16, Y: 14})
	mixed := random(27, 21, -1, 1)
	mixed.SetRectTo(geom.Rect{X0: 3, Y0: 15, X1: 5, Y1: 17}, 4)
	mixed.SetRectTo(geom.Rect{X0: 22, Y0: 4, X1: 23, Y1: 5}, 6)
	mixed.Set(geom.Cell{X: 14, Y: 6}, math.NaN())

	// An exact diagonal ray whose samples land on cell corners, where
	// rounding decides which axis a sample crosses first. At this
	// origin the ray reads the tall cell 9 cells along x but only 7
	// along y after its 9th sample (at the corner of its 8×8 block), a
	// block beyond the octant table's cone, so the sector must march
	// without the table.
	corner := flatRaster(t, 32, 24)
	corner.SetOrigin(geom.Cell{X: -29885 - 11, Y: 9972 - 20})
	corner.Set(geom.Cell{X: 24, Y: 8}, 10)
	cornerOpts := Options{Sectors: 4, MaxDistanceM: 8, NearStepM: 0.14142135623730953, NearFieldM: 9}

	// Six sectors put a ray due east (dx = 1), and half of its
	// near-field samples land on cell edges: the sample table marks them
	// ambiguous and the ray computes their cells the walk's way.
	edges := random(26, 22, -1, 2)
	edges.SetRectTo(geom.Rect{X0: 21, Y0: 9, X1: 22, Y1: 12}, 5)
	edgesShifted := edges.Clone()
	edgesShifted.SetOrigin(geom.Cell{X: 1 << 24, Y: -(1 << 23)})
	edgeOpts := Options{Sectors: 6, MaxDistanceM: 40}
	for _, r := range []*dsm.Raster{edges, edgesShifted} {
		if n := ambiguousEntries(newKernel(r, edgeOpts.withDefaults(r.CellSize()))); n == 0 {
			t.Fatalf("origin %v: no ambiguous sample table entry to exercise", r.Origin())
		}
	}

	type oracleCase struct {
		name   string
		r      *dsm.Raster
		region geom.Rect
		opts   Options
	}
	cases := []oracleCase{
		{"negative/fast", random(24, 20, -3, 2), geom.Rect{X0: 2, Y0: 2, X1: 22, Y1: 18}, fast},
		{"negative/default", random(20, 18, -3, 2), geom.Rect{X0: 4, Y0: 3, X1: 16, Y1: 15}, Options{}},
		// Entirely below the datum: the highest sample any ray reads is
		// the 0 past the raster edge.
		{"sunken/fast", random(18, 16, -4, -1), geom.Rect{X0: 0, Y0: 0, X1: 18, Y1: 16}, fast},
		{"nan/fast", withNaN, geom.Rect{X0: 0, Y0: 0, X1: 24, Y1: 20}, fast},
		{"nan/short", withNaN, geom.Rect{X0: 5, Y0: 6, X1: 12, Y1: 13}, short},
		{"flat/fast", flatRaster(t, 20, 20), geom.Rect{X0: 3, Y0: 3, X1: 17, Y1: 17}, fast},
		{"flat/default", flatRaster(t, 16, 16), geom.Rect{X0: 0, Y0: 0, X1: 16, Y1: 16}, Options{}},
		{"window/fast", window, geom.Rect{X0: 1, Y0: 2, X1: 29, Y1: 25}, fast},
		{"window/default", window, geom.Rect{X0: 8, Y0: 8, X1: 20, Y1: 18}, Options{}},
		{"eye-above-top/fast", random(20, 20, -1, 1), geom.Rect{X0: 2, Y0: 2, X1: 18, Y1: 18},
			Options{Sectors: 32, MaxDistanceM: 40, EyeHeightM: 3}},
		{"eye-above-top/short", towers, geom.Rect{X0: 0, Y0: 10, X1: 28, Y1: 28},
			Options{Sectors: 16, MaxDistanceM: 6, EyeHeightM: 12}},
		{"towers/fast", towers, geom.Rect{X0: 0, Y0: 0, X1: 28, Y1: 28}, fast},
		{"towers/default", towers, geom.Rect{X0: 6, Y0: 6, X1: 22, Y1: 22}, Options{}},
		{"spike/fast", spike, geom.Rect{X0: 10, Y0: 5, X1: 40, Y1: 40}, fast},
		{"spike/default", spike, geom.Rect{X0: 30, Y0: 15, X1: 40, Y1: 27}, Options{}},
		{"rim/fast", rim, geom.Rect{X0: 0, Y0: 0, X1: 13, Y1: 11}, fast},
		{"rim/short", rim, geom.Rect{X0: 0, Y0: 0, X1: 13, Y1: 11}, short},
		{"cone-edges/fast", coneEdges, geom.Rect{X0: 8, Y0: 6, X1: 25, Y1: 23}, fast},
		{"cone-edges/short", coneEdges, geom.Rect{X0: 0, Y0: 0, X1: 33, Y1: 29}, short},
		{"diagonal-corner", corner, geom.Rect{X0: 11, Y0: 20, X1: 12, Y1: 21}, cornerOpts},
		{"cell-edges/origin-0", edges, geom.Rect{X0: 0, Y0: 0, X1: 26, Y1: 22}, edgeOpts},
		{"cell-edges/origin-2^24", edgesShifted, geom.Rect{X0: 0, Y0: 0, X1: 26, Y1: 22}, edgeOpts},
	}
	for n := 4; n <= 64; n++ {
		cases = append(cases, oracleCase{fmt.Sprintf("sectors/%d", n), mixed,
			geom.Rect{X0: 6, Y0: 4, X1: 21, Y1: 17}, Options{Sectors: n, MaxDistanceM: 8, NearFieldM: 2}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := buildRef(tc.r, tc.region, tc.opts)
			for _, workers := range []int{1, 2} {
				m, err := BuildRegions(tc.r, []geom.Rect{tc.region}, tc.opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				got := m.Snapshot()
				if i, ok := sameBits(got.Tan, want.Tan); !ok {
					t.Fatalf("workers %d: tan[%d] = %v, oracle %v", workers, i, got.Tan[i], want.Tan[i])
				}
				if i, ok := sameBits(got.SVF, want.SVF); !ok {
					t.Fatalf("workers %d: svf[%d] = %v, oracle %v", workers, i, got.SVF[i], want.SVF[i])
				}
			}
		})
	}
}

// ambiguousEntries counts the sample table entries of k whose cell the
// ray computes from the distance.
func ambiguousEntries(k *kernel) int {
	n := 0
	for _, ry := range k.rays {
		for _, e := range ry.samples {
			if e.sx == ambiguous {
				n++
			}
		}
	}
	return n
}

// TestRayTableMatchesFloatWalk holds every ray's sample table to the
// float positions of the step-by-step walk, ⌊(x0 + dx·d)/cs⌋ less the
// origin, with x0 + dx·d rounded twice and, as a compiler may emit it,
// fused into one rounding (math.FMA): at every sector count from 4 to
// 64, for Fast, default and short options, at origins up to 2²⁴ cells
// out, from the raster's corner and centre cells. Every certain entry
// must step to the walk's cell, every schedule distance the table
// leaves out must read the cell of the entry kept before it, and the
// kept entries must follow the schedule in order.
func TestRayTableMatchesFloatWalk(t *testing.T) {
	sets := []struct {
		name string
		opts Options
	}{
		{"fast", Options{MaxDistanceM: 40}},
		{"default", Options{}},
		{"short", Options{MaxDistanceM: 6, NearFieldM: 2}},
	}
	const w, h = 37, 23
	cells := []geom.Cell{{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: 0, Y: h - 1}, {X: w - 1, Y: h - 1}, {X: w / 2, Y: h / 2}}
	for _, origin := range []geom.Cell{{X: 0, Y: 0}, {X: 137, Y: -41}, {X: -29885, Y: 9972}, {X: 1 << 24, Y: -(1 << 23)}} {
		r := flatRaster(t, w, h)
		r.SetOrigin(origin)
		cs := r.CellSize()
		for _, set := range sets {
			for n := 4; n <= 64; n++ {
				opts := set.opts
				opts.Sectors = n
				opts = opts.withDefaults(cs)
				k := newKernel(r, opts)
				dist := schedule(opts)
				for _, c := range cells {
					x0, y0 := r.CellCenterMetres(c)
					for s, ry := range k.rays {
						// The walk's cell at d, with x0 + dx·d rounded
						// twice or, fused, once.
						walk := func(d float64, fused bool) geom.Cell {
							x, y := x0+ry.dx*d, y0+ry.dy*d
							if fused {
								x, y = math.FMA(ry.dx, d, x0), math.FMA(ry.dy, d, y0)
							}
							return geom.Cell{X: int(math.Floor(x/cs)) - origin.X, Y: int(math.Floor(y/cs)) - origin.Y}
						}
						for _, fused := range []bool{false, true} {
							j, prev := 0, geom.Cell{}
							for _, d := range dist {
								want := walk(d, fused)
								if j < len(ry.samples) && ry.samples[j].d == d {
									if e := ry.samples[j]; e.sx != ambiguous {
										if got := (geom.Cell{X: c.X + int(e.sx), Y: c.Y + int(e.sy)}); got != want {
											t.Fatalf("origin %v %s/%d cell %v sector %d d=%v fused=%v: table cell %v, walk %v",
												origin, set.name, n, c, s, d, fused, got, want)
										}
									}
									j, prev = j+1, want
									continue
								}
								if j == 0 || want != prev {
									t.Fatalf("origin %v %s/%d cell %v sector %d fused=%v: left out d=%v reads %v, not the kept entry's %v",
										origin, set.name, n, c, s, fused, d, want, prev)
								}
							}
							if j != len(ry.samples) {
								t.Fatalf("origin %v %s/%d sector %d: %d of %d table entries off the schedule",
									origin, set.name, n, s, len(ry.samples)-j, len(ry.samples))
							}
						}
					}
				}
			}
		}
	}
}

// fuzzElevation decodes one fuzz byte into an elevation: the top
// eight byte values are the extremes the march's filter and exits must
// order exactly (NaN, ±Inf, ±1e300 and subnormals of both signs), the
// rest are int8 eighths of a metre.
func fuzzElevation(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return 1e300
	case 0xfb:
		return -1e300
	case 0xfa:
		return 0x1p-1074
	case 0xf9:
		return -0x1p-1074
	case 0xf8:
		return 3e-310
	}
	return float64(int8(b)) / 8
}

// FuzzMarchKernel compares the production kernel with the oracle walk
// on one cell of a raster of up to 40×40 cells decoded from the input
// bytes, so partial 8×8 table blocks and cones over many blocks occur:
// the first two bytes give the dimensions, the rest the elevations
// (see fuzzElevation), and the window origin, cell, sector count (4 to
// 64) and march distances come from the remaining arguments. The
// committed corpus under testdata/fuzz/FuzzMarchKernel holds the exact
// diagonal sector counts, the extreme elevations and six-sector rays
// whose samples land on cell edges (ambiguous sample table entries), at
// origin 0 and at the int16 extremes, so a plain go test replays them.
func FuzzMarchKernel(f *testing.F) {
	f.Add([]byte{6, 5, 0, 10, 200, 40, 255, 3, 90, 17}, int16(0), int16(0), uint8(2), uint8(3), uint8(12),
		4.0, 0.1, 1.5, 0.5, 0.05)
	f.Add([]byte{11, 11}, int16(-300), int16(77), uint8(5), uint8(5), uint8(28), 40.0, 0.1, 12.0, 0.5, 0.05)
	f.Add([]byte{3, 9, 128, 129, 127, 0, 1, 255, 250}, int16(9), int16(-9), uint8(1), uint8(7), uint8(0),
		9.0, 0.07, 0.0, 0.33, 2.5)
	f.Fuzz(func(t *testing.T, data []byte, ox, oy int16, cx, cy, sectors uint8,
		maxDist, nearStep, nearField, farStep, eye float64) {
		if len(data) < 2 {
			return
		}
		opts := Options{
			Sectors:      4 + int(sectors)%61,
			MaxDistanceM: maxDist,
			NearStepM:    nearStep,
			NearFieldM:   nearField,
			FarStepM:     farStep,
			EyeHeightM:   eye,
		}
		// Finite options with a bounded number of steps per ray.
		for _, v := range []float64{maxDist, nearStep, nearField, farStep, eye} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if opts.validate() != nil || maxDist > 50 || nearStep < 0.01 || farStep < 0.01 || eye > 100 {
			return
		}
		w, h := 1+int(data[0])%40, 1+int(data[1])%40
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		r.SetOrigin(geom.Cell{X: int(ox), Y: int(oy)})
		for i, b := range data[2:] {
			if i >= w*h {
				break
			}
			r.Set(geom.Cell{X: i % w, Y: i / w}, fuzzElevation(b))
		}
		c := geom.Cell{X: int(cx) % w, Y: int(cy) % h}
		want := make([]float32, opts.Sectors)
		dirX, dirY := sectorDirsRef(opts.Sectors)
		wantSVF := marchCellRef(r, c, dirX, dirY, opts, want)
		got := make([]float32, opts.Sectors)
		gotSVF := newKernel(r, opts).cell(c, got)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("sector %d: kernel tan %v, oracle %v", i, got[i], want[i])
		}
		if math.Float32bits(gotSVF) != math.Float32bits(wantSVF) {
			t.Fatalf("kernel svf %v, oracle %v", gotSVF, wantSVF)
		}
	})
}

// TestBuildCountsOnlyMarches: a region Build rejects — outside the
// raster, or empty — returns an error without counting as a march,
// and the empty one is reported as empty.
func TestBuildCountsOnlyMarches(t *testing.T) {
	r := flatRaster(t, 20, 20)
	before := BuildCount()
	if _, err := Build(r, geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 10}, Options{}); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	_, err := Build(r, geom.Rect{X0: 5, Y0: 5, X1: 5, Y1: 9}, Options{})
	if err == nil || !strings.Contains(err.Error(), "empty region") {
		t.Errorf("empty region: got error %v, want an empty-region error", err)
	}
	if d := BuildCount() - before; d != 0 {
		t.Errorf("rejected builds added %d to BuildCount, want 0", d)
	}
}

// TestBuildMatchesBuildRegionsAcrossWorkers: Build and BuildRegions
// over the same rect serialise to the same bytes for every worker
// count.
func TestBuildMatchesBuildRegionsAcrossWorkers(t *testing.T) {
	r := flatRasterWithWall(t)
	r.MaxAbove(geom.Rect{X0: 8, Y0: 30, X1: 11, Y1: 33}, 3)
	region := geom.Rect{X0: 1, Y0: 3, X1: 29, Y1: 38}
	opts := Options{Sectors: 16, MaxDistanceM: 6}
	encode := func(m *Map) []byte {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	built, err := Build(r, region, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(built)
	for _, workers := range []int{1, 2, 8} {
		m, err := BuildRegions(r, []geom.Rect{region}, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(m), want) {
			t.Errorf("workers %d: BuildRegions encoding differs from Build", workers)
		}
	}
}

// TestBuildMaskMatchesFullRect: a masked build marches the set cells
// bit for bit as a build over the whole region does and leaves every
// other cell at +0, for every worker count, on seeded surfaces with
// below-datum and NaN cells (NaN lines along the octant cones' edges
// among them), a tall spike 30 m from the region on a raster whose
// sides are not multiples of 8, and random masks from empty to full.
// The full build itself matches the oracle walk bit for bit. Each
// masked build counts once; a mask of the wrong size and an empty
// region are rejected without counting.
func TestBuildMaskMatchesFullRect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	random := func(w, h int, lo, hi float64) *dsm.Raster {
		r, err := dsm.NewRaster(w, h, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r.Set(geom.Cell{X: x, Y: y}, lo+(hi-lo)*rng.Float64())
			}
		}
		return r
	}
	withNaN := random(26, 22, -2, 3)
	withNaN.Set(geom.Cell{X: 9, Y: 11}, math.NaN())
	withNaN.Set(geom.Cell{X: 3, Y: 4}, math.NaN())
	window := random(30, 24, -1, 4)
	window.SetOrigin(geom.Cell{X: -57, Y: 203})
	spike := random(181, 37, -1, 0.5)
	spike.SetRectTo(geom.Rect{X0: 2, Y0: 30, X1: 4, Y1: 32}, 12)
	spike.SetOrigin(geom.Cell{X: 4001, Y: -77})
	coneEdges := nanConeEdges(random(29, 27, -0.5, 2), geom.Cell{X: 13, Y: 12})
	for _, tc := range []struct {
		name   string
		r      *dsm.Raster
		region geom.Rect
		opts   Options
	}{
		{"nan", withNaN, geom.Rect{X0: 2, Y0: 3, X1: 24, Y1: 20}, Options{Sectors: 16, MaxDistanceM: 6}},
		{"sunken", random(20, 18, -4, -1), geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 18}, Options{Sectors: 32, MaxDistanceM: 40}},
		{"window", window, geom.Rect{X0: 5, Y0: 1, X1: 28, Y1: 23}, Options{}},
		// The spike sits 150 cells (30 m) west of the region's edge.
		{"spike", spike, geom.Rect{X0: 154, Y0: 3, X1: 181, Y1: 34}, Options{Sectors: 32, MaxDistanceM: 40}},
		{"cone-edges", coneEdges, geom.Rect{X0: 4, Y0: 5, X1: 25, Y1: 22}, Options{Sectors: 20, MaxDistanceM: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := BuildRegions(tc.r, []geom.Rect{tc.region}, tc.opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Snapshot()
			oracle := buildRef(tc.r, tc.region, tc.opts)
			if i, ok := sameBits(want.Tan, oracle.Tan); !ok {
				t.Fatalf("full build tan[%d] = %v, oracle %v", i, want.Tan[i], oracle.Tan[i])
			}
			if i, ok := sameBits(want.SVF, oracle.SVF); !ok {
				t.Fatalf("full build svf[%d] = %v, oracle %v", i, want.SVF[i], oracle.SVF[i])
			}
			zero := make([]float32, want.Sectors)
			w, h := tc.region.W(), tc.region.H()
			for _, density := range []float64{0, 0.1, 0.6, 1} {
				cells := geom.NewMask(w, h)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						cells.Set(geom.Cell{X: x, Y: y}, rng.Float64() < density)
					}
				}
				for _, workers := range []int{1, 2, 8} {
					before := BuildCount()
					m, err := BuildMask(tc.r, tc.region, cells, tc.opts, workers)
					if err != nil {
						t.Fatal(err)
					}
					if d := BuildCount() - before; d != 1 {
						t.Fatalf("BuildMask added %d to BuildCount, want 1", d)
					}
					got := m.Snapshot()
					if got.Region != want.Region || got.Sectors != want.Sectors || m.BuildOptions() != full.BuildOptions() {
						t.Fatalf("density %g workers %d: shape or options differ from the full build", density, workers)
					}
					for idx := range got.SVF {
						c := geom.Cell{X: idx % w, Y: idx / w}
						lo, hi := idx*got.Sectors, (idx+1)*got.Sectors
						if cells.Get(c) {
							if i, ok := sameBits(got.Tan[lo:hi], want.Tan[lo:hi]); !ok {
								t.Fatalf("density %g workers %d cell %v sector %d: tan %v, full build %v",
									density, workers, c, i, got.Tan[lo+i], want.Tan[lo+i])
							}
							if math.Float32bits(got.SVF[idx]) != math.Float32bits(want.SVF[idx]) {
								t.Fatalf("density %g workers %d cell %v: svf %v, full build %v",
									density, workers, c, got.SVF[idx], want.SVF[idx])
							}
							continue
						}
						if _, ok := sameBits(got.Tan[lo:hi], zero); !ok || math.Float32bits(got.SVF[idx]) != 0 {
							t.Fatalf("density %g workers %d: unmarked cell %v is not +0", density, workers, c)
						}
					}
				}
			}
		})
	}

	r := flatRasterWithWall(t)
	region := geom.Rect{X0: 2, Y0: 2, X1: 12, Y1: 8}
	before := BuildCount()
	if _, err := BuildMask(r, region, geom.NewMask(10, 7), Options{}, 1); err == nil {
		t.Error("mask taller than the region accepted")
	}
	if _, err := BuildMask(r, region, geom.NewMask(6, 10), Options{}, 1); err == nil {
		t.Error("mask of another shape accepted")
	}
	if _, err := BuildMask(r, region, nil, Options{}, 1); err == nil {
		t.Error("nil mask accepted")
	}
	_, err := BuildMask(r, geom.Rect{X0: 4, Y0: 4, X1: 4, Y1: 9}, geom.NewMask(0, 5), Options{}, 1)
	if err == nil || !strings.Contains(err.Error(), "empty region") {
		t.Errorf("empty region: got error %v, want an empty-region error", err)
	}
	if _, err := BuildMask(r, geom.Rect{X0: 30, Y0: 0, X1: 45, Y1: 5}, geom.NewMask(15, 5), Options{}, 1); err == nil {
		t.Error("region outside the raster accepted")
	}
	if d := BuildCount() - before; d != 0 {
		t.Errorf("rejected masked builds added %d to BuildCount, want 0", d)
	}
}

// TestOctantTablesCoverCone checks the octant max tables against brute
// force on seeded rasters of low and below-datum cells with NaN cells
// and a few tall spikes. For every octant and every cell, the bound the
// kernel looks up at the cell's block, max(M[b], M[b+minor]), must be
// at least 0 (what reads past the raster return) and at least every
// elevation in the cell's reachable cone: the cells a steps on along
// the octant's major direction and c along its minor one, with
// 0 ≤ c ≤ a+1. It must also equal the maximum over the same cone of
// blocks, rounded up to float32 as the tables store it, which pins
// them exactly, on a ramp finer than float32 resolution too. octant must map a direction
// inside each octant to that octant's table and minor offset, and the
// raster top must be the highest elevation or 0.
func TestOctantTablesCoverCone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const bs = 1 << blockShift
	for _, dims := range [][2]int{{1, 1}, {8, 8}, {9, 7}, {3, 26}, {23, 17}, {40, 33}} {
		w, h := dims[0], dims[1]
		z := make([]float64, w*h)
		wantTop := 0.0
		for i := range z {
			switch u := rng.Float64(); {
			case u < 0.06:
				z[i] = math.NaN()
			case u < 0.09:
				z[i] = 1 + 20*rng.Float64()
			default:
				z[i] = -4 + 4.5*rng.Float64()
			}
			if z[i] > wantTop {
				wantTop = z[i]
			}
		}
		if w*h == 1 {
			z[0] = -2 // a lone below-datum cell: every bound is the 0 past the edge
			wantTop = 0
		}
		if w == 9 {
			// A ramp finer than float32 resolution: each elevation beats
			// the one before it but not its rounded-up table value.
			for i := range z {
				z[i] = 3 + float64(i)*1e-12
			}
			wantTop = z[len(z)-1]
		}
		at := func(x, y int) float64 { // a raster read: 0 outside, NaN never wins
			if x < 0 || x >= w || y < 0 || y >= h || !(z[y*w+x] > 0) {
				return 0
			}
			return z[y*w+x]
		}
		tables, tw, top := octantTables(z, w, h)
		if top != wantTop {
			t.Fatalf("%dx%d: top %v, want %v", w, h, top, wantTop)
		}
		nb := max(w, h)/bs + 2
		for o, tbl := range tables {
			majorY, sx, sy := o&4 != 0, 1-2*(o>>1&1), 1-2*(o&1)
			minor := sy * tw
			if majorY {
				minor = sx
			}
			// A direction inside the octant, off its axis and diagonal.
			dx, dy := float64(sx)*0.9, float64(sy)*0.4
			if majorY {
				dx, dy = float64(sx)*0.4, float64(sy)*0.9
			}
			if gotO, gotMinor := octant(dx, dy, tw); gotO != o || gotMinor != minor {
				t.Fatalf("octant(%v, %v) = %d, %d; want %d, %d", dx, dy, gotO, gotMinor, o, minor)
			}
			// step maps (major, minor) steps to plan (x, y) steps.
			step := func(a, c int) (int, int) {
				if majorY {
					return sx * c, sy * a
				}
				return sx * a, sy * c
			}
			for y := range h {
				for x := range w {
					b := (y/bs+1)*tw + x/bs + 1
					got := max(tbl[b], tbl[b+minor])
					cells := 0.0
					for a := 0; a <= w+h; a++ {
						for c := 0; c <= a+1; c++ {
							ex, ey := step(a, c)
							cells = max(cells, at(x+ex, y+ey))
						}
					}
					blocks := 0.0
					for a := 0; a <= nb; a++ {
						for c := 0; c <= a+1; c++ {
							ex, ey := step(a, c)
							bx, by := x/bs+ex, y/bs+ey
							for yy := by * bs; yy < (by+1)*bs; yy++ {
								for xx := bx * bs; xx < (bx+1)*bs; xx++ {
									blocks = max(blocks, at(xx, yy))
								}
							}
						}
					}
					if float64(got) < cells {
						t.Fatalf("%dx%d octant %d cell (%d,%d): bound %v below the cone's %v", w, h, o, x, y, got, cells)
					}
					if got != up32(blocks) {
						t.Fatalf("%dx%d octant %d cell (%d,%d): bound %v, block cone %v", w, h, o, x, y, got, blocks)
					}
				}
			}
		}
	}
}
