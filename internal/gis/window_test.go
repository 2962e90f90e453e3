package gis

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// testGrid builds a deterministic w×h grid with a few NODATA features:
// a hole rect, and optionally a fully-NODATA band of rows.
func testGrid(w, h int, holes ...geom.Rect) *AscGrid {
	g := &AscGrid{NCols: w, NRows: h, CellSize: 0.2, NoData: -9999, Z: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Z[y*w+x] = float64((x*31+y*17)%23) * 0.25
		}
	}
	for _, hole := range holes {
		for y := hole.Y0; y < hole.Y1; y++ {
			for x := hole.X0; x < hole.X1; x++ {
				g.Z[y*w+x] = g.NoData
			}
		}
	}
	return g
}

func newWindowed(t *testing.T, g *AscGrid, opts WindowOptions) *WindowedReader {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowedReader(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	})
	return w
}

// TestWindowMatchesWholeFile is the windowed reader's correctness
// property: any window equals the corresponding sub-rectangle of the
// whole-file LoadRaster read — values, NODATA policy and mask — with
// the window origin set to the rect anchor.
func TestWindowMatchesWholeFile(t *testing.T) {
	g := testGrid(57, 43, geom.Rect{X0: 10, Y0: 12, X1: 16, Y1: 18})
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	full, fullMask, err := LoadRaster(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	w := newWindowed(t, g, WindowOptions{BlockRows: 7})
	if w.Bounds() != full.Bounds() || w.CellSize() != full.CellSize() {
		t.Fatalf("reader bounds %v cell %g, want %v cell %g",
			w.Bounds(), w.CellSize(), full.Bounds(), full.CellSize())
	}

	rng := rand.New(rand.NewSource(7))
	rects := []geom.Rect{
		w.Bounds(),                       // whole grid
		{X0: 8, Y0: 10, X1: 20, Y1: 20},  // straddles the hole
		{X0: 0, Y0: 0, X1: 1, Y1: 1},     // single cell
		{X0: 56, Y0: 42, X1: 57, Y1: 43}, // far corner
		{X0: 3, Y0: 6, X1: 57, Y1: 8},    // thin full-width strip
		{X0: 30, Y0: 0, X1: 40, Y1: 43},  // full-height column
	}
	for i := 0; i < 20; i++ {
		x0, y0 := rng.Intn(56), rng.Intn(42)
		rects = append(rects, geom.Rect{
			X0: x0, Y0: y0,
			X1: x0 + 1 + rng.Intn(57-x0-1), Y1: y0 + 1 + rng.Intn(43-y0-1),
		})
	}
	for _, rect := range rects {
		win, mask, err := w.Window(rect)
		if err != nil {
			t.Fatalf("window %v: %v", rect, err)
		}
		if win.Origin() != rect.Anchor() {
			t.Fatalf("window %v origin %v", rect, win.Origin())
		}
		for y := 0; y < rect.H(); y++ {
			for x := 0; x < rect.W(); x++ {
				l := geom.Cell{X: x, Y: y}
				gcell := geom.Cell{X: rect.X0 + x, Y: rect.Y0 + y}
				if got, want := win.At(l), full.At(gcell); got != want {
					t.Fatalf("window %v cell %v: %g, want %g", rect, gcell, got, want)
				}
				wantHole := fullMask != nil && fullMask.Get(gcell)
				gotHole := mask != nil && mask.Get(l)
				if gotHole != wantHole {
					t.Fatalf("window %v cell %v: nodata %v, want %v", rect, gcell, gotHole, wantHole)
				}
			}
		}
		if mask != nil && mask.Count() == 0 {
			t.Errorf("window %v returned an all-clear mask instead of nil", rect)
		}
	}
}

// TestWindowNodataBoundaries covers the NODATA edge cases of the
// issue: a hole spanning a block boundary, and a window that is
// entirely NODATA.
func TestWindowNodataBoundaries(t *testing.T) {
	// BlockRows 4 → block boundary between rows 3 and 4; the hole
	// spans rows 2..5 so it crosses it. Rows 10..19 are fully NODATA
	// across the grid.
	g := testGrid(24, 20,
		geom.Rect{X0: 5, Y0: 2, X1: 9, Y1: 6},
		geom.Rect{X0: 0, Y0: 10, X1: 24, Y1: 20})
	w := newWindowed(t, g, WindowOptions{BlockRows: 4})

	win, mask, err := w.Window(geom.Rect{X0: 4, Y0: 1, X1: 10, Y1: 7})
	if err != nil {
		t.Fatal(err)
	}
	if mask == nil {
		t.Fatal("hole spanning the block boundary produced no mask")
	}
	for y := 2; y < 6; y++ {
		for x := 5; x < 9; x++ {
			l := geom.Cell{X: x - 4, Y: y - 1}
			if !mask.Get(l) {
				t.Fatalf("hole cell (%d,%d) not masked", x, y)
			}
			if win.At(l) != 0 {
				t.Fatalf("hole cell (%d,%d) filled with %g, want 0", x, y, win.At(l))
			}
		}
	}
	if mask.Count() != 16 {
		t.Errorf("masked %d cells, want the 4x4 hole", mask.Count())
	}

	rect := geom.Rect{X0: 2, Y0: 12, X1: 20, Y1: 18}
	_, dead, err := w.Window(rect)
	if err != nil {
		t.Fatal(err)
	}
	if dead == nil || dead.Count() != rect.Area() {
		t.Fatalf("entirely-NODATA window masked %v cells, want all %d", dead, rect.Area())
	}
}

// TestBlockCacheEviction pins the LRU under a one-block budget:
// alternating between two blocks must miss every time, re-reading the
// resident block must hit, and the counters must account for it all.
func TestBlockCacheEviction(t *testing.T) {
	g := testGrid(16, 12)
	// One row per block; each block is 16*8 = 128 bytes, so a 1-byte
	// budget degrades to exactly one resident block.
	w := newWindowed(t, g, WindowOptions{BlockRows: 1, CacheBytes: 1})

	row := func(y int) geom.Rect { return geom.Rect{X0: 0, Y0: y, X1: 16, Y1: y + 1} }
	read := func(y int) {
		t.Helper()
		if _, _, err := w.Window(row(y)); err != nil {
			t.Fatal(err)
		}
	}

	read(0) // miss: cold
	read(0) // hit: still resident
	if s := w.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Evictions: 0}) {
		t.Fatalf("after warm re-read: %+v", s)
	}
	read(1) // miss: evicts row 0
	read(0) // miss: row 0 was evicted, evicts row 1
	read(1) // miss: row 1 was evicted
	if s := w.Stats(); s != (CacheStats{Hits: 1, Misses: 4, Evictions: 3}) {
		t.Fatalf("after thrash: %+v", s)
	}

	// A roomy budget stops the thrashing: both rows stay resident.
	w2 := newWindowed(t, g, WindowOptions{BlockRows: 1, CacheBytes: 1 << 20})
	if _, _, err := w2.Window(geom.Rect{X0: 0, Y0: 0, X1: 16, Y1: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w2.Window(geom.Rect{X0: 0, Y0: 0, X1: 16, Y1: 2}); err != nil {
		t.Fatal(err)
	}
	if s := w2.Stats(); s != (CacheStats{Hits: 2, Misses: 2, Evictions: 0}) {
		t.Fatalf("roomy budget: %+v", s)
	}
}

func TestWindowValidation(t *testing.T) {
	w := newWindowed(t, testGrid(10, 10), WindowOptions{})
	for _, rect := range []geom.Rect{
		{},
		{X0: 5, Y0: 5, X1: 5, Y1: 8},
		{X0: -1, Y0: 0, X1: 5, Y1: 5},
		{X0: 0, Y0: 0, X1: 11, Y1: 5},
	} {
		if _, _, err := w.Window(rect); err == nil {
			t.Errorf("window %v should fail", rect)
		}
	}
}

// TestWindowedReaderRejectsMalformed: every structural defect fails
// the open itself, and a failed open leaves no temporary file behind.
func TestWindowedReaderRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	cases := map[string]string{
		"empty":            "",
		"missing header":   "1 2\n3 4\n",
		"header only":      "ncols 2\nnrows 1\ncellsize 1\n",
		"wrapped rows":     "ncols 4\nnrows 2\ncellsize 1\n1 2\n3 4\n5 6\n7 8\n",
		"joined rows":      "ncols 2\nnrows 2\ncellsize 1\n1 2 3 4\n",
		"short row":        "ncols 3\nnrows 2\ncellsize 1\n1 2 3\n4 5\n",
		"extra row":        "ncols 2\nnrows 1\ncellsize 1\n1 2\n3 4\n",
		"missing row":      "ncols 2\nnrows 3\ncellsize 1\n1 2\n3 4\n",
		"bad data token":   "ncols 2\nnrows 1\ncellsize 1\n1 zz\n",
		"unknown key":      "ncols 2\nnrows 1\ncellsize 1\nfrobnicate 3\n1 2\n",
		"zero cellsize":    "ncols 2\nnrows 1\ncellsize 0\n1 2\n",
		"truncated gzip":   string(gzipBytes(t, []byte(sampleAsc))[:12]),
		"gzipped, no rows": string(gzipBytes(t, []byte("ncols 2\nnrows 1\ncellsize 1\n"))),
	}
	for name, data := range cases {
		w, err := NewWindowedReader(strings.NewReader(data), WindowOptions{})
		if err == nil {
			w.Close()
			t.Errorf("%s: open accepted a malformed grid", name)
		}
		assertNoTempFiles(t, dir)
	}
}

// gzipBytes compresses b as one gzip member.
func gzipBytes(tb testing.TB, b []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// assertNoTempFiles fails when a reader's binary grid outlived it in dir.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	leftovers, err := filepath.Glob(filepath.Join(dir, "pvfloor-asc-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temporary grid files left behind: %v", leftovers)
	}
}

// TestGzipRoundTrip covers the transparent-gzip satellite: the same
// grid must load identically as plain ASC, gzipped ASC through
// LoadRaster, and gzipped ASC through the windowed reader.
func TestGzipRoundTrip(t *testing.T) {
	g := testGrid(31, 22, geom.Rect{X0: 4, Y0: 4, X1: 7, Y1: 9})
	var plain bytes.Buffer
	if err := g.WriteAsc(&plain); err != nil {
		t.Fatal(err)
	}
	gzipped := bytes.NewBuffer(gzipBytes(t, plain.Bytes()))

	want, wantMask, err := LoadRaster(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, gotMask, err := LoadRaster(bytes.NewReader(gzipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != want.ContentHash() {
		t.Fatal("gzip LoadRaster decoded a different raster")
	}
	if (gotMask == nil) != (wantMask == nil) || gotMask.Count() != wantMask.Count() {
		t.Fatal("gzip LoadRaster decoded a different nodata mask")
	}

	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	plainPath := filepath.Join(dir, "tile.asc")
	gzPath := filepath.Join(dir, "tile.asc.gz")
	if err := os.WriteFile(plainPath, plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, gzipped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plainPath, gzPath} {
		w, err := OpenWindowed(path, WindowOptions{BlockRows: 5})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		win, mask, err := w.Window(w.Bounds())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if win.ContentHash() != want.ContentHash() {
			t.Errorf("%s: windowed read decoded a different raster", path)
		}
		if mask == nil || mask.Count() != wantMask.Count() {
			t.Errorf("%s: windowed read decoded a different nodata mask", path)
		}
		if err := w.Close(); err != nil {
			t.Errorf("%s: close: %v", path, err)
		}
	}
	// The binary grid must not outlive the reader.
	assertNoTempFiles(t, dir)
}

// TestRasterSourceMatchesWindowedReader pins the in-memory adapter to
// the file-backed reader: same windows, same masks, same origins.
func TestRasterSourceMatchesWindowedReader(t *testing.T) {
	g := testGrid(33, 27, geom.Rect{X0: 20, Y0: 5, X1: 25, Y1: 11})
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	full, mask, err := LoadRaster(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src := &RasterSource{Raster: full, NoData: mask}
	w := newWindowed(t, g, WindowOptions{BlockRows: 6})

	for _, rect := range []geom.Rect{
		full.Bounds(),
		{X0: 18, Y0: 3, X1: 27, Y1: 14},
		{X0: 0, Y0: 26, X1: 33, Y1: 27},
	} {
		a, am, err := src.Window(rect)
		if err != nil {
			t.Fatal(err)
		}
		b, bm, err := w.Window(rect)
		if err != nil {
			t.Fatal(err)
		}
		if a.ContentHash() != b.ContentHash() {
			t.Errorf("window %v: sources disagree on raster content", rect)
		}
		if (am == nil) != (bm == nil) || (am != nil && am.Count() != bm.Count()) {
			t.Errorf("window %v: sources disagree on nodata mask", rect)
		}
	}
	if _, _, err := src.Window(geom.Rect{X0: -1, Y0: 0, X1: 3, Y1: 3}); err == nil {
		t.Error("out-of-bounds window should fail")
	}
}

// holeyGrid is a 29×23 grid with a NODATA rect, a NaN rect and a
// fully-NODATA row, in the text form WriteAsc gives it.
func holeyGrid(t *testing.T) []byte {
	t.Helper()
	g := testGrid(29, 23, geom.Rect{X0: 3, Y0: 4, X1: 9, Y1: 11}, geom.Rect{X0: 0, Y0: 17, X1: 29, Y1: 18})
	for y := 12; y < 15; y++ {
		for x := 20; x < 26; x++ {
			g.Z[y*g.NCols+x] = math.NaN()
		}
	}
	var buf bytes.Buffer
	if err := g.WriteAsc(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWindow compares rect of w against the whole-file load: every
// elevation bit, every mask bit, and a nil mask exactly when rect has
// no hole.
func checkWindow(w interface {
	Window(geom.Rect) (*dsm.Raster, *geom.Mask, error)
}, full *dsm.Raster, fullMask *geom.Mask, rect geom.Rect) error {
	win, mask, err := w.Window(rect)
	if err != nil {
		return fmt.Errorf("window %v: %w", rect, err)
	}
	if win.Origin() != rect.Anchor() || win.Bounds() != (geom.Rect{X1: rect.W(), Y1: rect.H()}) {
		return fmt.Errorf("window %v: origin %v bounds %v", rect, win.Origin(), win.Bounds())
	}
	holes := 0
	for y := 0; y < rect.H(); y++ {
		for x := 0; x < rect.W(); x++ {
			l := geom.Cell{X: x, Y: y}
			gc := geom.Cell{X: rect.X0 + x, Y: rect.Y0 + y}
			if got, want := math.Float64bits(win.At(l)), math.Float64bits(full.At(gc)); got != want {
				return fmt.Errorf("window %v cell %v: bits %x, want %x", rect, gc, got, want)
			}
			wantHole := fullMask != nil && fullMask.Get(gc)
			if gotHole := mask != nil && mask.Get(l); gotHole != wantHole {
				return fmt.Errorf("window %v cell %v: nodata %v, want %v", rect, gc, gotHole, wantHole)
			}
			if wantHole {
				holes++
			}
		}
	}
	if (mask == nil) != (holes == 0) {
		return fmt.Errorf("window %v: mask %v for %d holes", rect, mask != nil, holes)
	}
	return nil
}

// equivalenceRects is a fixed spread of windows over a 29×23 grid.
func equivalenceRects() []geom.Rect {
	rects := []geom.Rect{
		{X1: 29, Y1: 23},
		{X0: 2, Y0: 3, X1: 10, Y1: 12},
		{X0: 19, Y0: 11, X1: 27, Y1: 16},
		{X0: 0, Y0: 17, X1: 29, Y1: 18},
		{X0: 28, Y0: 22, X1: 29, Y1: 23},
		{X0: 14, Y0: 0, X1: 15, Y1: 23},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		x0, y0 := rng.Intn(28), rng.Intn(22)
		rects = append(rects, geom.Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(29-x0), Y1: y0 + 1 + rng.Intn(23-y0)})
	}
	return rects
}

// TestWindowEquivalence pins the binary grid to the text: plain and
// gzipped, at every block height from 1 to 7 and under both a 1-byte
// and a roomy budget, every window equals LoadRaster's raster bits
// and mask, NODATA and NaN holes included.
func TestWindowEquivalence(t *testing.T) {
	text := holeyGrid(t)
	full, fullMask, err := LoadRaster(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// 6×7 NODATA, one 29-cell NODATA row and 6×3 NaN cells.
	if fullMask.Count() != 42+29+18 {
		t.Fatalf("LoadRaster masked %d cells, want %d", fullMask.Count(), 42+29+18)
	}
	for _, form := range []struct {
		name string
		data []byte
	}{{"plain", text}, {"gzip", gzipBytes(t, text)}} {
		for rows := 1; rows <= 7; rows++ {
			for _, budget := range []int64{1, 1 << 20} {
				w, err := NewWindowedReader(bytes.NewReader(form.data), WindowOptions{BlockRows: rows, CacheBytes: budget})
				if err != nil {
					t.Fatalf("%s rows %d: %v", form.name, rows, err)
				}
				for _, rect := range equivalenceRects() {
					if err := checkWindow(w, full, fullMask, rect); err != nil {
						t.Errorf("%s rows %d budget %d: %v", form.name, rows, budget, err)
					}
				}
				if s := w.Stats(); budget == 1 && s.Evictions == 0 {
					t.Errorf("%s rows %d: a 1-byte budget evicted nothing: %+v", form.name, rows, s)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestWindowConcurrent runs 8 goroutines over one reader under a
// 1-byte budget, so nearly every lookup evicts a block whose storage
// the next decode reuses; run with -race.
func TestWindowConcurrent(t *testing.T) {
	text := holeyGrid(t)
	full, fullMask, err := LoadRaster(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowedReader(bytes.NewReader(text), WindowOptions{BlockRows: 3, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rects := equivalenceRects()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*len(rects); i++ {
				if err := checkWindow(w, full, fullMask, rects[(g+i)%len(rects)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTempGridLifetime: an open reader holds one temporary file of
// 8 bytes per cell, and Close removes it.
func TestTempGridLifetime(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	w, err := NewWindowedReader(bytes.NewReader(holeyGrid(t)), WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "pvfloor-asc-*.tmp"))
	if err != nil || len(files) != 1 {
		t.Fatalf("open reader's temp files = %v, %v; want one", files, err)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(29 * 23 * 8); st.Size() != want {
		t.Errorf("temp grid is %d bytes, want %d (8 per cell)", st.Size(), want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoTempFiles(t, dir)
}

// TestLyingHeaderAllocatesFromBody: a header claiming 2^24 columns or
// rows over a two-value body fails on the body, never allocating a
// row or grid sized from the header.
func TestLyingHeaderAllocatesFromBody(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, data := range []string{
		"ncols 16777216\nnrows 16777216\ncellsize 1\n1 2\n",
		"ncols 2\nnrows 16777216\ncellsize 1\n1 2\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := NewWindowedReader(strings.NewReader(data), WindowOptions{})
		runtime.ReadMemStats(&after)
		if err == nil {
			w.Close()
			t.Fatalf("%q: open accepted a header that overstates its body", data)
		}
		// The scanner's 64 KiB line buffer and the bufio buffers are
		// expected; one 2^24-value row alone would be 128 MiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%q: failed open allocated %d bytes", data, grew)
		}
	}
}
