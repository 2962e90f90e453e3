package horizon

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// Physical invariants of the march that hold whatever the goldens
// say, checked over random synthetic roofs.

// TestFlatRoofSeesOpenSky: on a flat roof with no obstructions every
// marched cell has horizon tangent 0 in every sector and sky view
// factor 1, whatever the roof's size, height, pitch, sector count and
// reach. (The area outside the raster reads as ground 0, so the roof
// sits at or above it.)
func TestFlatRoofSeesOpenSky(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(40), 4+rng.Intn(40)
		cs := []float64{0.1, 0.2, 0.5, 1}[rng.Intn(4)]
		r, err := dsm.NewRaster(w, h, cs)
		if err != nil {
			t.Fatal(err)
		}
		z := []float64{0, rng.Float64() * 50}[rng.Intn(2)]
		r.SetRectTo(r.Bounds(), z)
		opts := Options{Sectors: 4 + rng.Intn(61), MaxDistanceM: 1 + rng.Float64()*80}
		cells := geom.NewMask(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				cells.Set(geom.Cell{X: x, Y: y}, rng.Intn(3) > 0)
			}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m, err := BuildMask(r, r.Bounds(), cells, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w*h; i++ {
				if !cells.Get(geom.Cell{X: i % w, Y: i / w}) {
					continue
				}
				for s, tan := range m.TanRow(i) {
					if tan != 0 {
						t.Fatalf("cell %d sector %d: tangent %g on a flat roof at %g m", i, s, tan, z)
					}
				}
				if svf := m.SVFIdx(i); svf != 1 {
					t.Fatalf("cell %d: SVF %g on a flat roof", i, svf)
				}
			}
		})
	}
}

// TestInfiniteWallTangent: a wall of height h whose near face lies d
// metres east of a cell, running past both ends of the ray fan,
// raises the horizon of every sector facing it to h'/D, where h' is
// the wall's height above the eye and D = d/cos θ the distance along
// the sector's ray, θ its angle from due east. The march samples the
// ray every half cell and reads the cell a sample falls in, so the
// first wall sample lies within one cell past the face: the tangent
// must lie in [h'/(D + cs), h'/D]. Sectors facing away see flat
// ground, tangent 0.
func TestInfiniteWallTangent(t *testing.T) {
	const cs = 0.2
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wallH := 1 + rng.Float64()*9
		gap := 2 + rng.Intn(17) // cells from the observer column to the face
		// The wall spans every row; rays within 72.5° of east hit it
		// at most gap/cos(72.5°) ≈ 3.4·gap cells out, so 4·gap rows on
		// either side of the observer keep every hit on the wall.
		rows := 8*gap + 2
		w := gap + 4
		r, err := dsm.NewRaster(w, rows, cs)
		if err != nil {
			t.Fatal(err)
		}
		face := gap + 1
		r.SetRectTo(geom.Rect{X0: face, Y0: 0, X1: face + 2, Y1: rows}, wallH)
		obs := geom.Cell{X: 1, Y: rows / 2}
		opts := Options{Sectors: []int{8, 16, 32, 64}[rng.Intn(4)], MaxDistanceM: 40, NearFieldM: 40}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m, err := Build(r, geom.Rect{X0: obs.X, Y0: obs.Y, X1: obs.X + 1, Y1: obs.Y + 1}, opts)
			if err != nil {
				t.Fatal(err)
			}
			x0, _ := r.CellCenterMetres(obs)
			d := float64(face)*cs - x0
			rise := wallH - m.BuildOptions().EyeHeightM
			facing := 0
			for s, got := range m.TanRow(0) {
				az := (float64(s) + 0.5) * 2 * math.Pi / float64(opts.Sectors)
				east := math.Sin(az) // cos θ
				switch {
				case east <= 0:
					if got != 0 {
						t.Errorf("sector %d faces away from the wall: tangent %g, want 0", s, got)
					}
				case east >= 0.3:
					facing++
					dist := d / east
					lo, hi := rise/(dist+cs), rise/dist
					if g := float64(got); g < lo*(1-1e-6) || g > hi*(1+1e-6) {
						t.Errorf("sector %d (cos θ %.3f): tangent %g, want %g..%g (h %.2f m, d %.2f m)",
							s, east, g, lo, hi, wallH, d)
					}
				}
			}
			if facing == 0 {
				t.Fatal("no sector faces the wall")
			}
		})
	}
}
