package gis

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

const sampleAsc = `ncols 4
nrows 3
xllcorner 395000.5
yllcorner 5000020
cellsize 0.2
NODATA_value -9999
1.0 2.0 3.0 4.0
5.0 -9999 7.0 8.0
9.0 10.0 11.0 12.5
`

func TestReadAsc(t *testing.T) {
	g, err := ReadAsc(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	if g.NCols != 4 || g.NRows != 3 {
		t.Fatalf("dims %dx%d", g.NCols, g.NRows)
	}
	if g.CellSize != 0.2 || g.XLLCorner != 395000.5 || g.YLLCorner != 5000020 {
		t.Errorf("georeference wrong: %+v", g)
	}
	if g.Z[0] != 1.0 || g.Z[11] != 12.5 {
		t.Errorf("data order wrong: %v", g.Z)
	}
	if g.Z[5] != -9999 {
		t.Errorf("nodata cell = %g", g.Z[5])
	}
}

func TestReadAscErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"missing header":   "1 2 3\n4 5 6\n",
		"bad header value": "ncols x\nnrows 2\ncellsize 1\n1 2\n3 4\n",
		"unknown key":      "ncols 2\nnrows 1\ncellsize 1\nfrobnicate 3\n1 2\n",
		"too few values":   "ncols 2\nnrows 2\ncellsize 1\n1 2 3\n",
		"too many values":  "ncols 2\nnrows 1\ncellsize 1\n1 2 3\n",
		"bad data token":   "ncols 2\nnrows 1\ncellsize 1\n1 zz\n",
		"zero dims":        "ncols 0\nnrows 1\ncellsize 1\n",
		"bad cellsize":     "ncols 1\nnrows 1\ncellsize -1\n5\n",
		// NCols×NRows wraps in int: to 0, then to 4096 (2^12 × (2^52+1)).
		"overflowing shape": "ncols 4294967296\nnrows 4294967296\ncellsize 1\n",
		"overflow to 4096":  "ncols 4096\nnrows 4503599627370497\ncellsize 1\n" + strings.Repeat("1 ", 4096) + "\n",
	}
	for name, data := range cases {
		if _, err := ReadAsc(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g, err := ReadAsc(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAsc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NCols != g.NCols || back.NRows != g.NRows || back.CellSize != g.CellSize {
		t.Fatal("header roundtrip failed")
	}
	for i := range g.Z {
		if g.Z[i] != back.Z[i] {
			t.Fatalf("data roundtrip failed at %d: %g vs %g", i, g.Z[i], back.Z[i])
		}
	}
}

func TestToRaster(t *testing.T) {
	g, err := ReadAsc(strings.NewReader(sampleAsc))
	if err != nil {
		t.Fatal(err)
	}
	r, missing, err := g.ToRaster(0)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 1 {
		t.Errorf("missing = %d, want 1", missing)
	}
	if r.At(geom.Cell{X: 1, Y: 1}) != 0 {
		t.Error("nodata cell should take the fill value")
	}
	if r.At(geom.Cell{X: 3, Y: 2}) != 12.5 {
		t.Error("data misplaced in raster")
	}
	if r.CellSize() != 0.2 {
		t.Error("cell size lost")
	}
}

func TestFromRasterRoundTrip(t *testing.T) {
	// A synthetic scene exported and re-imported must preserve every
	// elevation: the path a user takes to inspect our scenes in QGIS
	// or to swap in a real LiDAR DSM.
	b, err := dsm.NewSceneBuilder(20, 10, 0.2, dsm.Plane{RidgeZ: 8, SlopeDeg: 26, AspectDeg: 180}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.AddChimney(geom.Cell{X: 5, Y: 3}, 2, 1.5)
	scene := b.Build()

	g := FromRaster(scene.Raster, 395000, 5000000)
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAsc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2, missing, err := back.ToRaster(0)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Errorf("unexpected nodata cells: %d", missing)
	}
	for y := 0; y < scene.Raster.H(); y++ {
		for x := 0; x < scene.Raster.W(); x++ {
			c := geom.Cell{X: x, Y: y}
			a, bv := scene.Raster.At(c), r2.At(c)
			if math.Abs(a-bv) > 1e-9 {
				t.Fatalf("elevation mismatch at %v: %g vs %g", c, a, bv)
			}
		}
	}
}

func TestXllcenterVariantAccepted(t *testing.T) {
	asc := strings.Replace(sampleAsc, "xllcorner", "xllcenter", 1)
	asc = strings.Replace(asc, "yllcorner", "yllcenter", 1)
	if _, err := ReadAsc(strings.NewReader(asc)); err != nil {
		t.Errorf("xllcenter/yllcenter variant rejected: %v", err)
	}
}

// TestNextFieldMatchesStringsFields pins the byte tokeniser the
// one-pass reader uses to strings.Fields, which ReadAsc used before
// it: Unicode white space separates, invalid UTF-8 does not.
func TestNextFieldMatchesStringsFields(t *testing.T) {
	lines := []string{
		"", "   ", "1", " 1 2\t3\r", "\v1\f-2.5e3  nan\n",
		"1 2", "1\u00852", "1 3　", " ", "é 1", "1\xff 2", "\xc2 \xa0",
	}
	rng := rand.New(rand.NewSource(5))
	pieces := []string{"1", "-2.5", "NaN", " ", "\t", " ", "\u0085", " ", "\xff", "\xc2", "é", "x"}
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		lines = append(lines, sb.String())
	}
	for _, line := range lines {
		var got []string
		for tok, rest := nextField([]byte(line)); tok != nil; tok, rest = nextField(rest) {
			got = append(got, string(tok))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("%q: fields %q, want %q", line, got, want)
		}
	}
}

// TestScanAscRows pins ScanAsc's row contract: every row in order with
// its values as parsed, and no call for a row past NROWS.
func TestScanAscRows(t *testing.T) {
	var got [][]float64
	collect := func(_ *AscGrid, vals []float64) error {
		got = append(got, slices.Clone(vals))
		return nil
	}
	g, err := ScanAsc(strings.NewReader(sampleAsc), collect)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 3, 4}, {5, -9999, 7, 8}, {9, 10, 11, 12.5}}
	if g.NCols != 4 || g.NRows != 3 || g.Z != nil || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("header %+v, rows %v", g, got)
	}
	got = nil
	if _, err := ScanAsc(strings.NewReader(sampleAsc+"1 2 3 4\n"), collect); err == nil {
		t.Fatal("accepted a row past nrows")
	}
	if len(got) != 3 {
		t.Fatalf("row called %d times for nrows 3", len(got))
	}
}
