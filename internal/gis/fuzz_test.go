package gis

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// FuzzReadAsc hammers the ASC parser with arbitrary bytes. The parser
// must never panic; when it accepts an input, the parsed grid must be
// internally consistent and survive a write→read round trip with an
// identical header and identical data bits.
func FuzzReadAsc(f *testing.F) {
	f.Add([]byte(sampleAsc))
	f.Add([]byte("ncols 2\nnrows 2\ncellsize 0.2\n1 2\n3 4\n"))
	f.Add([]byte("ncols 1\nnrows 1\nxllcenter 5\nyllcenter 6\ncellsize 1\nNODATA_value -1\n-1\n"))
	f.Add([]byte("ncols 2\nnrows 1\ncellsize 1\n1e308 -1e308\n"))
	f.Add([]byte("ncols 3\nnrows 1\ncellsize 0.5\nnan inf -inf\n"))
	f.Add([]byte(""))
	f.Add([]byte("ncols x\n"))
	// The committed district fixture, clipped to keep iterations fast.
	if fix, err := os.ReadFile(filepath.Join("..", "..", "testdata", "district", "neighborhood.asc")); err == nil {
		lines := strings.SplitN(string(fix), "\n", 10)
		f.Add([]byte(strings.Join(lines[:6], "\n") + "\n"))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAsc(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NCols <= 0 || g.NRows <= 0 || g.CellSize <= 0 {
			t.Fatalf("accepted invalid shape: %dx%d cell %g", g.NCols, g.NRows, g.CellSize)
		}
		if len(g.Z) != g.NCols*g.NRows {
			t.Fatalf("accepted %d values for %dx%d grid", len(g.Z), g.NCols, g.NRows)
		}
		var buf bytes.Buffer
		if err := g.WriteAsc(&buf); err != nil {
			t.Fatalf("write of accepted grid failed: %v", err)
		}
		back, err := ReadAsc(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted grid failed: %v", err)
		}
		// Header floats can legitimately be NaN (e.g. "xllcorner nan"
		// parses), and NaN != NaN — compare like the data cells: bit
		// pattern, any-NaN-matches-any-NaN.
		sameF := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		}
		if back.NCols != g.NCols || back.NRows != g.NRows ||
			!sameF(back.CellSize, g.CellSize) || !sameF(back.NoData, g.NoData) ||
			!sameF(back.XLLCorner, g.XLLCorner) || !sameF(back.YLLCorner, g.YLLCorner) {
			t.Fatalf("header drifted: %+v vs %+v", g, back)
		}
		for i := range g.Z {
			// %g prints shortest-round-trip floats, so the bits must
			// survive exactly (NaN payloads excepted: any NaN is fine).
			if math.IsNaN(g.Z[i]) && math.IsNaN(back.Z[i]) {
				continue
			}
			if math.Float64bits(g.Z[i]) != math.Float64bits(back.Z[i]) {
				t.Fatalf("Z[%d] drifted: %g (%x) vs %g (%x)",
					i, g.Z[i], math.Float64bits(g.Z[i]), back.Z[i], math.Float64bits(back.Z[i]))
			}
		}
	})
}

// FuzzRasterRoundTrip drives the dsm.Raster → AscGrid → text →
// AscGrid → dsm.Raster cycle with fuzzed shapes, georeference and a
// procedurally filled surface: the reconstruction must be cell-exact
// and NODATA accounting must match.
func FuzzRasterRoundTrip(f *testing.F) {
	f.Add(3, 2, 0.2, 395000.5, 5000020.0, uint64(1))
	f.Add(1, 1, 1.0, 0.0, 0.0, uint64(42))
	f.Add(12, 7, 0.05, -100.25, 7e6, uint64(99))

	f.Fuzz(func(t *testing.T, w, h int, cellSize, xll, yll float64, seed uint64) {
		if w <= 0 || h <= 0 || w*h > 1<<12 {
			t.Skip()
		}
		if !(cellSize > 1e-9) || cellSize > 1e6 ||
			math.IsNaN(xll) || math.IsInf(xll, 0) || math.IsNaN(yll) || math.IsInf(yll, 0) {
			t.Skip()
		}
		r, err := dsm.NewRaster(w, h, cellSize)
		if err != nil {
			t.Skip()
		}
		// Deterministic splitmix64-style fill: finite, varied values.
		s := seed
		next := func() float64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return float64(int64(z%2_000_000)-1_000_000) / 128
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r.Set(geom.Cell{X: x, Y: y}, next())
			}
		}
		g := FromRaster(r, xll, yll)
		var buf bytes.Buffer
		if err := g.WriteAsc(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadAsc(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		r2, missing, err := back.ToRaster(0)
		if err != nil {
			t.Fatalf("to raster: %v", err)
		}
		if missing != 0 {
			t.Fatalf("%d cells misread as NODATA", missing)
		}
		if back.NoDataMask().Count() != 0 {
			t.Fatal("NoDataMask nonempty on a fully valid grid")
		}
		if r2.W() != w || r2.H() != h || r2.CellSize() != cellSize {
			t.Fatalf("shape drifted: %dx%d cell %g", r2.W(), r2.H(), r2.CellSize())
		}
		if r.ContentHash() != r2.ContentHash() {
			t.Fatal("raster content drifted through the ASC round trip")
		}
	})
}

// FuzzWindowedReader feeds raw bytes, plain or gzipped, to the
// windowed reader. Either the open fails, or — whenever LoadRaster
// accepts the same bytes — every window matches LoadRaster's raster
// bits and mask. A header that overstates its body must fail without
// allocating from the header (the 2^40-cell seed would exhaust
// memory otherwise).
func FuzzWindowedReader(f *testing.F) {
	f.Add([]byte(sampleAsc))
	f.Add(gzipBytes(f, []byte(sampleAsc)))
	f.Add([]byte("ncols 3\nnrows 2\ncellsize 1\nNODATA_value -1\n-1 nan 2\r\n3 -1 NaN\n"))
	f.Add([]byte("ncols 2\nnrows 2\ncellsize 0.5\n\n 1 2 \n\t3 4\n\n"))
	f.Add([]byte("ncols 1048576\nnrows 1048576\ncellsize 1\n1 2\n"))
	f.Add([]byte("ncols 2\nnrows 1048576\ncellsize 1\n1 2\n"))
	f.Add([]byte("ncols 2\nnrows 2\ncellsize 1\n1 2 3 4\n"))
	f.Add([]byte("ncols 4\nnrows 1\ncellsize 1\n1 2\n3 4\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := NewWindowedReader(bytes.NewReader(data), WindowOptions{BlockRows: 2, CacheBytes: 1})
		if err != nil {
			return
		}
		defer w.Close()
		full, mask, err := LoadRaster(bytes.NewReader(data))
		if err != nil {
			return
		}
		if w.Bounds() != full.Bounds() || w.CellSize() != full.CellSize() {
			t.Fatalf("reader bounds %v cell %g, LoadRaster %v cell %g",
				w.Bounds(), w.CellSize(), full.Bounds(), full.CellSize())
		}
		b := w.Bounds()
		for _, rect := range []geom.Rect{
			b,
			{X0: b.X1 / 2, Y0: b.Y1 / 3, X1: b.X1, Y1: b.Y1},
			{X0: 0, Y0: b.Y1 - 1, X1: (b.X1 + 1) / 2, Y1: b.Y1},
		} {
			if err := checkWindow(w, full, mask, rect); err != nil {
				t.Fatal(err)
			}
		}
	})
}
