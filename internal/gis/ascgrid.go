// Package gis provides interchange with standard GIS raster formats
// so that real LiDAR-derived surface models — the paper's actual
// input (§IV) — can replace the synthetic scenes. The ESRI ASCII grid
// (.asc) format is the lingua franca of DSM distribution (it is what
// GRASS, QGIS and most national LiDAR portals export), trivially
// diffable and stdlib-parsable.
package gis

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// AscGrid is the parsed header+data of an ESRI ASCII grid. Rows are
// stored north-to-south (the file order), matching the dsm.Raster
// convention of y growing southward.
type AscGrid struct {
	// NCols, NRows are the raster dimensions.
	NCols, NRows int
	// XLLCorner, YLLCorner locate the lower-left corner in the
	// source coordinate reference system (carried through verbatim).
	XLLCorner, YLLCorner float64
	// CellSize is the grid pitch in metres.
	CellSize float64
	// NoData is the sentinel for missing cells.
	NoData float64
	// Z holds elevations row-major, north row first.
	Z []float64
}

// maxLineBytes caps one text line of an ASC grid, so a stream with no
// newlines (a gzip bomb, say) cannot grow a line buffer without limit.
const maxLineBytes = 64 << 20

// ReadAsc parses an ESRI ASCII grid. Data rows may wrap across lines:
// only the total count of values must equal NCols×NRows.
func ReadAsc(r io.Reader) (*AscGrid, error) {
	var z []float64
	g, err := scanLines(r, func(_ *AscGrid, line []byte) (err error) {
		if z, err = appendValues(z, line, math.MaxInt); err != nil {
			return fmt.Errorf("gis: data %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Divide rather than multiply: NCols×NRows can overflow int.
	if len(z)%g.NCols != 0 || len(z)/g.NCols != g.NRows {
		return nil, fmt.Errorf("gis: %d data values for %dx%d grid", len(z), g.NCols, g.NRows)
	}
	g.Z = z
	return g, nil
}

// ScanAsc parses an ESRI ASCII grid in one pass, holding one data row
// at a time. Values match ReadAsc's bit for bit (same header parser,
// tokenisation and strconv.ParseFloat), but each raster row must sit
// on its own line, as WriteAsc and mainstream GIS exporters write it.
// row gets every row in file order with its NCols values as parsed
// (NODATA and NaN left in place); vals is reused after row returns.
// No buffer is sized from the header, so a header that overstates its
// body fails when the body runs out. The result is the header (Z nil).
func ScanAsc(r io.Reader, row func(g *AscGrid, vals []float64) error) (*AscGrid, error) {
	rows := 0
	var vals []float64
	g, err := scanLines(r, func(g *AscGrid, line []byte) error {
		if rows == g.NRows {
			return fmt.Errorf("gis: more than nrows %d data lines (one row per line)", g.NRows)
		}
		var err error
		if vals, err = appendValues(vals[:0], line, g.NCols); err != nil {
			return fmt.Errorf("gis: row %d: %w", rows, err)
		}
		if len(vals) != g.NCols {
			return fmt.Errorf("gis: row %d has %d values, want ncols %d", rows, len(vals), g.NCols)
		}
		rows++
		return row(g, vals)
	})
	if err != nil {
		return nil, err
	}
	if rows != g.NRows {
		return nil, fmt.Errorf("gis: %d data lines for nrows %d (one row per line)", rows, g.NRows)
	}
	return g, nil
}

// scanLines reads an ASC grid's lines, each capped at maxLineBytes:
// "key value" lines go to setHeaderField until the first data line,
// the header is checked, and every later non-blank line goes to data.
func scanLines(r io.Reader, data func(g *AscGrid, line []byte) error) (*AscGrid, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	g := &AscGrid{NoData: -9999}
	seen := map[string]bool{}
	headerDone := false
	for sc.Scan() {
		line := sc.Bytes()
		first, rest := nextField(line)
		if first == nil {
			continue // blank line
		}
		if !headerDone {
			second, tail := nextField(rest)
			if third, _ := nextField(tail); second != nil && third == nil && !isNumeric(string(first)) {
				if err := g.setHeaderField(string(first), string(second), seen); err != nil {
					return nil, err
				}
				continue
			}
			if err := g.checkHeader(seen); err != nil {
				return nil, err
			}
			headerDone = true
		}
		if err := data(g, line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gis: reading asc: %w", err)
	}
	if err := g.checkHeader(seen); err != nil {
		return nil, err
	}
	return g, nil
}

// appendValues parses line's fields with strconv.ParseFloat onto
// vals, failing rather than grow vals past max values.
func appendValues(vals []float64, line []byte, max int) ([]float64, error) {
	for tok, rest := nextField(line); tok != nil; tok, rest = nextField(rest) {
		if len(vals) == max {
			return nil, fmt.Errorf("more than %d values", max)
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", len(vals), err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// nextField splits the first field off b, or returns a nil tok when b
// has none. Fields split where strings.Fields splits them: at
// unicode.IsSpace runes, with invalid UTF-8 counting as non-space.
func nextField(b []byte) (tok, rest []byte) {
	start := -1
	for i, n := 0, 1; i < len(b); i += n {
		c := b[i]
		space := asciiSpace[c]
		n = 1
		if c >= utf8.RuneSelf {
			var r rune
			r, n = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			return b[start:i], b[i:]
		}
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func isNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// setHeaderField parses one "key value" header line into g, recording
// the key in seen.
func (g *AscGrid) setHeaderField(rawKey, rawVal string, seen map[string]bool) error {
	key := strings.ToLower(rawKey)
	val, err := strconv.ParseFloat(rawVal, 64)
	if err != nil {
		return fmt.Errorf("gis: header %s: bad value %q: %w", key, rawVal, err)
	}
	seen[key] = true
	switch key {
	case "ncols":
		g.NCols = int(val)
	case "nrows":
		g.NRows = int(val)
	case "xllcorner", "xllcenter":
		g.XLLCorner = val
	case "yllcorner", "yllcenter":
		g.YLLCorner = val
	case "cellsize":
		g.CellSize = val
	case "nodata_value":
		g.NoData = val
	default:
		return fmt.Errorf("gis: unknown header key %q", key)
	}
	return nil
}

// checkHeader rejects a header that lacks a mandatory key or has a
// non-positive shape or cell size.
func (g *AscGrid) checkHeader(seen map[string]bool) error {
	if !seen["ncols"] || !seen["nrows"] || !seen["cellsize"] {
		return fmt.Errorf("gis: missing mandatory header keys (ncols/nrows/cellsize)")
	}
	if g.NCols <= 0 || g.NRows <= 0 || g.CellSize <= 0 {
		return fmt.Errorf("gis: invalid grid shape %dx%d cell %g", g.NCols, g.NRows, g.CellSize)
	}
	return nil
}

// IsNoData reports whether v is a coverage hole: the NODATA sentinel
// or NaN.
func (g *AscGrid) IsNoData(v float64) bool { return v == g.NoData || v != v }

// WriteAsc serialises the grid in ESRI ASCII format.
func (g *AscGrid) WriteAsc(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ncols %d\n", g.NCols)
	fmt.Fprintf(bw, "nrows %d\n", g.NRows)
	fmt.Fprintf(bw, "xllcorner %g\n", g.XLLCorner)
	fmt.Fprintf(bw, "yllcorner %g\n", g.YLLCorner)
	fmt.Fprintf(bw, "cellsize %g\n", g.CellSize)
	fmt.Fprintf(bw, "NODATA_value %g\n", g.NoData)
	for y := 0; y < g.NRows; y++ {
		for x := 0; x < g.NCols; x++ {
			if x > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", g.Z[y*g.NCols+x])
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("gis: writing asc: %w", err)
	}
	return nil
}

// ToRaster converts the grid to a dsm.Raster. NoData cells map to the
// provided fill elevation (typically the ground datum 0); the count
// of NoData cells is returned so callers can judge coverage.
func (g *AscGrid) ToRaster(noDataFill float64) (*dsm.Raster, int, error) {
	r, err := dsm.NewRaster(g.NCols, g.NRows, g.CellSize)
	if err != nil {
		return nil, 0, err
	}
	missing := 0
	for y := 0; y < g.NRows; y++ {
		for x := 0; x < g.NCols; x++ {
			v := g.Z[y*g.NCols+x]
			if g.IsNoData(v) {
				v = noDataFill
				missing++
			}
			r.Set(geom.Cell{X: x, Y: y}, v)
		}
	}
	return r, missing, nil
}

// NoDataMask returns a mask (grid dims) marking the NoData and NaN
// cells — the coverage holes a LiDAR survey leaves. District roof
// extraction consumes it so missing cells never join a roof footprint.
func (g *AscGrid) NoDataMask() *geom.Mask {
	m := geom.NewMask(g.NCols, g.NRows)
	for y := 0; y < g.NRows; y++ {
		for x := 0; x < g.NCols; x++ {
			if g.IsNoData(g.Z[y*g.NCols+x]) {
				m.Set(geom.Cell{X: x, Y: y}, true)
			}
		}
	}
	return m
}

// gzipMagic is the two-byte RFC 1952 member header every gzip stream
// starts with.
var gzipMagic = []byte{0x1f, 0x8b}

// MaybeGunzip sniffs the stream's first two bytes and, when they are
// the gzip magic, interposes a gzip reader; plain streams pass through
// untouched. National LiDAR portals ship .asc.gz, so every ingestion
// surface (CLI file, HTTP body, windowed reader) accepts either form.
func MaybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("gis: sniffing stream: %w", err)
	}
	if len(head) == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("gis: opening gzip stream: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// LoadRaster reads an ESRI ASCII grid — plain or gzip-compressed
// (sniffed by magic bytes) — into a district-ready raster: NoData
// cells are filled with the ground datum 0, and when any exist the
// returned mask marks them (nil mask = full coverage). This is the
// one tile-ingestion path shared by cmd/pvdistrict and the pvserve
// district endpoint, so NODATA policy cannot diverge between the two
// surfaces.
func LoadRaster(r io.Reader) (*dsm.Raster, *geom.Mask, error) {
	rr, err := MaybeGunzip(r)
	if err != nil {
		return nil, nil, err
	}
	g, err := ReadAsc(rr)
	if err != nil {
		return nil, nil, err
	}
	tile, missing, err := g.ToRaster(0)
	if err != nil {
		return nil, nil, err
	}
	var nodata *geom.Mask
	if missing > 0 {
		nodata = g.NoDataMask()
	}
	return tile, nodata, nil
}

// FromRaster wraps a dsm.Raster for export, with the given lower-left
// corner coordinates in the target CRS.
func FromRaster(r *dsm.Raster, xll, yll float64) *AscGrid {
	g := &AscGrid{
		NCols: r.W(), NRows: r.H(),
		XLLCorner: xll, YLLCorner: yll,
		CellSize: r.CellSize(),
		NoData:   -9999,
		Z:        make([]float64, r.W()*r.H()),
	}
	for y := 0; y < r.H(); y++ {
		for x := 0; x < r.W(); x++ {
			g.Z[y*g.NCols+x] = r.At(geom.Cell{X: x, Y: y})
		}
	}
	return g
}
