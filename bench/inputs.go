package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/gis"
)

// Every input the program receives is generated here from the run's
// seed: the same seed gives byte-identical tiles, orders and schedules.
// Tiles are built from the two committed district fixtures, so their
// geometry is realistic while their content hashes are new per seed.

const (
	blockW, blockH = 160, 120
	cellSizeM      = 0.2
	poolSize       = 8 // 2 blocks × 4 flips, each exactly once
	cityBlocksX    = 4
	cityBlocksY    = 4
	cityBuilt      = 4 // blocks built out of cityBlocksX × cityBlocksY
)

// blockFiles are the committed fixtures tiles are built from, relative
// to the repository root.
var blockFiles = [2]string{
	"testdata/district/neighborhood.asc",
	"testdata/district/gabled.asc",
}

// rng returns the seeded generator of one input stream. Each stream
// has its own constant so adding draws to one never shifts another.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

const (
	streamPool uint64 = iota + 0x9e3779b9
	streamOrder
	streamCity
	streamServe
	streamUpload
	streamArrivals
)

// loadBlocks reads both fixtures and pads each to blockW×blockH by
// replicating its edge cells (the fixtures' borders are open ground).
func loadBlocks(root string) ([2]*dsm.Raster, error) {
	var out [2]*dsm.Raster
	for i, name := range blockFiles {
		f, err := os.Open(filepath.Join(root, name))
		if err != nil {
			return out, err
		}
		r, nodata, err := gis.LoadRaster(f)
		f.Close()
		if err != nil {
			return out, fmt.Errorf("reading %s: %w", name, err)
		}
		if nodata != nil {
			return out, fmt.Errorf("%s: fixture has NODATA cells", name)
		}
		if r.W() > blockW || r.H() > blockH || r.CellSize() != cellSizeM {
			return out, fmt.Errorf("%s: %dx%d at %g m does not fit a %dx%d block at %g m",
				name, r.W(), r.H(), r.CellSize(), blockW, blockH, cellSizeM)
		}
		p, err := dsm.NewRaster(blockW, blockH, cellSizeM)
		if err != nil {
			return out, err
		}
		for y := 0; y < blockH; y++ {
			for x := 0; x < blockW; x++ {
				p.Set(geom.Cell{X: x, Y: y}, r.At(geom.Cell{X: min(x, r.W()-1), Y: min(y, r.H()-1)}))
			}
		}
		out[i] = p
	}
	return out, nil
}

// tileSpec names one generated tile: a block, one of four flips
// (bit 0 mirrors x, bit 1 mirrors y) and a ground offset in metres.
type tileSpec struct {
	Block   int     `json:"block"`
	Flip    int     `json:"flip"`
	OffsetM float64 `json:"offset_m"`
}

// makeTile materialises spec.
func makeTile(blocks [2]*dsm.Raster, spec tileSpec) *dsm.Raster {
	src := blocks[spec.Block]
	r, _ := dsm.NewRaster(blockW, blockH, cellSizeM)
	for y := 0; y < blockH; y++ {
		for x := 0; x < blockW; x++ {
			sx, sy := x, y
			if spec.Flip&1 != 0 {
				sx = blockW - 1 - x
			}
			if spec.Flip&2 != 0 {
				sy = blockH - 1 - y
			}
			r.Set(geom.Cell{X: x, Y: y}, src.At(geom.Cell{X: sx, Y: sy})+spec.OffsetM)
		}
	}
	return r
}

// offsets draws n distinct ground offsets in centimetre steps from
// [lo, lo+5) metres; disjoint ranges keep tiles of different purposes
// distinct.
func offsets(r *rand.Rand, n int, lo float64) []float64 {
	out := make([]float64, 0, n)
	for _, k := range r.Perm(500)[:n] {
		out = append(out, lo+float64(k+1)/100)
	}
	return out
}

// districtPool returns the district workloads' tile pool: every
// (block, flip) pair once, so every seed plans the same geometry.
// Slot 0 is the unmodified neighborhood fixture, pinned against the
// committed golden; the other slots get seeded order and offsets.
func districtPool(seed int64) []tileSpec {
	r := rng(seed, streamPool)
	pool := []tileSpec{{Block: 0, Flip: 0}}
	off := offsets(r, poolSize-1, 0)
	for i, k := range r.Perm(poolSize - 1) {
		combo := k + 1 // combos 1..7 of block*4+flip
		pool = append(pool, tileSpec{Block: combo / 4, Flip: combo % 4, OffsetM: off[i]})
	}
	return pool
}

// freshTiles returns n tiles distinct from the pool and from each
// other, at offsets from [lo, lo+5) metres. Every run of poolSize tiles
// holds each (block, flip) pair once in seeded order, so the work the
// tiles carry does not depend on the seed.
func freshTiles(r *rand.Rand, n int, lo float64) []tileSpec {
	off := offsets(r, n, lo)
	out := make([]tileSpec, n)
	for i, combo := range cycleOrder(r, poolSize, n) {
		out[i] = tileSpec{Block: combo / 4, Flip: combo % 4, OffsetM: off[i]}
	}
	return out
}

// cycleOrder returns n indices into k items: concatenated seeded
// permutations, so every item appears equally often in each cycle.
func cycleOrder(r *rand.Rand, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, r.Perm(k)...)
	}
	return out[:n]
}

// citySpec places cityBuilt blocks on a cityBlocksX×cityBlocksY grid
// of flat ground: two of each fixture with seeded placement and flips.
// The built slots are the grid's diagonal for every seed, so each seed
// puts the same amount of work on the same tile seams.
type citySpec struct {
	Slots []int      `json:"slots"`
	Tiles []tileSpec `json:"tiles"`
}

var citySlots = []int{0, 5, 10, 15}

func makeCitySpec(seed int64) citySpec {
	r := rng(seed, streamCity)
	cs := citySpec{Slots: citySlots}
	for _, k := range r.Perm(cityBuilt) {
		cs.Tiles = append(cs.Tiles, tileSpec{Block: k % 2, Flip: r.IntN(4)})
	}
	return cs
}

// makeCity materialises the city raster.
func makeCity(blocks [2]*dsm.Raster, cs citySpec) *dsm.Raster {
	city, _ := dsm.NewRaster(blockW*cityBlocksX, blockH*cityBlocksY, cellSizeM)
	for i, slot := range cs.Slots {
		t := makeTile(blocks, cs.Tiles[i])
		x0, y0 := (slot%cityBlocksX)*blockW, (slot/cityBlocksX)*blockH
		for y := 0; y < blockH; y++ {
			for x := 0; x < blockW; x++ {
				city.Set(geom.Cell{X: x0 + x, Y: y0 + y}, t.At(geom.Cell{X: x, Y: y}))
			}
		}
	}
	return city
}

// ascBytes encodes r as an ESRI ASCII grid, gzip-compressed when zip
// is set. %g formatting round-trips every float64 exactly.
func ascBytes(r *dsm.Raster, zip bool) ([]byte, error) {
	var buf bytes.Buffer
	if !zip {
		err := gis.FromRaster(r, 0, 0).WriteAsc(&buf)
		return buf.Bytes(), err
	}
	zw := gzip.NewWriter(&buf)
	if err := gis.FromRaster(r, 0, 0).WriteAsc(zw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
