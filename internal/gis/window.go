package gis

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// WindowOptions sizes the windowed reader's block cache.
type WindowOptions struct {
	// BlockRows is the number of raster rows grouped into one cached
	// block. 0 means the default (64).
	BlockRows int
	// CacheBytes is the LRU budget for decoded blocks, in bytes. The
	// reader always retains at least the block it just decoded, so a
	// budget smaller than one block degrades to single-block caching
	// rather than thrashing to zero. 0 means the default (64 MiB).
	CacheBytes int64
}

const (
	defaultBlockRows  = 64
	defaultCacheBytes = 64 << 20
)

// CacheStats reports block-cache traffic. Hits+Misses counts every
// block lookup; Evictions counts blocks dropped to stay inside the
// byte budget.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// block is a decoded run of raster rows. nodata is nil when the run
// has full coverage.
type block struct {
	row0   int
	z      []float64
	nodata []bool
	bytes  int64
}

// WindowedReader provides out-of-core, block-indexed access to an
// ESRI ASCII grid. The constructor parses the text exactly once
// (ScanAsc), writing every value's little-endian float64 bits to a
// private temporary file: 8 B per cell on disk, removed by Close.
// Window(rect) then decodes only the row blocks the rectangle touches,
// each with one ReadAt and no text parsing, and holds at most
// CacheBytes of decoded blocks (plus one spare block left by an
// eviction and one block's read buffer). So a municipality-sized DSM
// is planned without ever materialising the full grid: peak memory is
// O(window + cache budget), independent of city size.
//
// The file must hold exactly one raster row per line (the layout
// WriteAsc and every mainstream GIS exporter produce); anything else
// fails the open.
//
// Window is safe for concurrent use; the city pipeline's tile workers
// share one reader.
type WindowedReader struct {
	hdr AscGrid  // header fields only; Z stays nil
	f   *os.File // NRows×NCols float64 bits, row-major, little-endian

	blockRows  int
	cacheBytes int64

	mu     sync.Mutex
	blocks map[int]*list.Element // block index → lru element holding *block
	lru    *list.List            // front = most recent
	held   int64
	stats  CacheStats
	spare  *block // last evicted block, whose storage the next decode reuses
	raw    []byte // ReadAt buffer for one block
}

// OpenWindowed opens path — a plain or gzip-compressed ESRI ASCII
// grid (sniffed by magic bytes) — for windowed access; see
// NewWindowedReader.
func OpenWindowed(path string, opts WindowOptions) (*WindowedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gis: opening %s: %w", path, err)
	}
	defer f.Close()
	return NewWindowedReader(f, opts)
}

// NewWindowedReader converts the plain or gzip-compressed ESRI ASCII
// grid read from r into the reader's temporary binary grid, in one
// pass. A malformed grid fails here, with the temporary file already
// removed; the caller must Close a returned reader.
func NewWindowedReader(r io.Reader, opts WindowOptions) (*WindowedReader, error) {
	plain, err := MaybeGunzip(r)
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "pvfloor-asc-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("gis: creating grid temp file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	var buf []byte
	g, err := ScanAsc(plain, func(_ *AscGrid, vals []float64) error {
		buf = buf[:0]
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		_, err := bw.Write(buf)
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	w := &WindowedReader{
		hdr:        *g,
		f:          f,
		blockRows:  opts.BlockRows,
		cacheBytes: opts.CacheBytes,
		blocks:     map[int]*list.Element{},
		lru:        list.New(),
	}
	if w.blockRows <= 0 {
		w.blockRows = defaultBlockRows
	}
	if w.cacheBytes <= 0 {
		w.cacheBytes = defaultCacheBytes
	}
	return w, nil
}

// Bounds returns the full grid rectangle in cells.
func (w *WindowedReader) Bounds() geom.Rect {
	return geom.Rect{X0: 0, Y0: 0, X1: w.hdr.NCols, Y1: w.hdr.NRows}
}

// CellSize returns the grid pitch in metres.
func (w *WindowedReader) CellSize() float64 { return w.hdr.CellSize }

// Stats returns a snapshot of the block-cache counters.
func (w *WindowedReader) Stats() CacheStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close releases the binary grid and removes its temporary file.
func (w *WindowedReader) Close() error {
	err := w.f.Close()
	if rerr := os.Remove(w.f.Name()); err == nil {
		err = rerr
	}
	return err
}

// Window decodes rect (global cells, half-open, must lie inside
// Bounds) into a district-ready raster: NoData cells are filled with
// the ground datum 0 and reported in the mask (nil = full coverage),
// exactly LoadRaster's policy. The raster's origin is set to rect's
// anchor, so its metric accessors — and therefore horizon marching
// over it — behave bit-identically to the full grid.
func (w *WindowedReader) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	r, err := newWindow(rect, w.Bounds(), w.hdr.CellSize)
	if err != nil {
		return nil, nil, err
	}
	var mask *geom.Mask
	// Blocks are copied out under the lock: a later miss may reuse an
	// evicted block's storage.
	w.mu.Lock()
	defer w.mu.Unlock()
	for y := rect.Y0; y < rect.Y1; y++ {
		b, err := w.getBlock(y / w.blockRows)
		if err != nil {
			return nil, nil, err
		}
		lo := (y-b.row0)*w.hdr.NCols + rect.X0
		hi := lo + rect.W()
		r.SetRow(y-rect.Y0, b.z[lo:hi])
		if b.nodata == nil {
			continue
		}
		for x, hole := range b.nodata[lo:hi] {
			if hole {
				if mask == nil {
					mask = geom.NewMask(rect.W(), rect.H())
				}
				mask.Set(geom.Cell{X: x, Y: y - rect.Y0}, true)
			}
		}
	}
	return r, mask, nil
}

// getBlock returns the decoded block bi, consulting the LRU cache.
// The caller holds w.mu.
func (w *WindowedReader) getBlock(bi int) (*block, error) {
	if el, ok := w.blocks[bi]; ok {
		w.stats.Hits++
		w.lru.MoveToFront(el)
		return el.Value.(*block), nil
	}
	w.stats.Misses++
	b, err := w.decodeBlock(bi)
	if err != nil {
		return nil, err
	}
	w.blocks[bi] = w.lru.PushFront(b)
	w.held += b.bytes
	for w.held > w.cacheBytes && w.lru.Len() > 1 {
		oldest := w.lru.Back()
		victim := oldest.Value.(*block)
		w.lru.Remove(oldest)
		delete(w.blocks, victim.row0/w.blockRows)
		w.held -= victim.bytes
		w.stats.Evictions++
		w.spare = victim
	}
	return b, nil
}

// decodeBlock reads the rows of block bi from the binary grid and
// applies the NODATA policy: sentinel and NaN cells become 0 and are
// flagged in nodata. It decodes into the spare block's storage when
// one is left from an eviction. The caller holds w.mu.
func (w *WindowedReader) decodeBlock(bi int) (*block, error) {
	row0 := bi * w.blockRows
	rows := min(w.blockRows, w.hdr.NRows-row0)
	n := rows * w.hdr.NCols
	b := w.spare
	w.spare = nil
	if b == nil {
		b = &block{}
	}
	w.raw = slices.Grow(w.raw[:0], n*8)[:n*8]
	if _, err := w.f.ReadAt(w.raw, int64(row0)*int64(w.hdr.NCols)*8); err != nil {
		return nil, fmt.Errorf("gis: reading rows %d-%d: %w", row0, row0+rows-1, err)
	}
	z := slices.Grow(b.z[:0], n)[:n]
	holes := b.nodata[:0]
	b.nodata = nil
	for i := range z {
		v := math.Float64frombits(binary.LittleEndian.Uint64(w.raw[i*8:]))
		if w.hdr.IsNoData(v) {
			if b.nodata == nil {
				b.nodata = slices.Grow(holes, n)[:n]
				clear(b.nodata)
			}
			b.nodata[i] = true
			v = 0
		}
		z[i] = v
	}
	b.row0, b.z = row0, z
	b.bytes = int64(len(b.z)*8 + len(b.nodata))
	return b, nil
}

// RasterSource adapts an in-memory raster (plus optional NODATA mask)
// to the same Bounds/CellSize/Window surface as WindowedReader, so
// the city pipeline can run over an already-loaded tile — the pvserve
// /v1/city endpoint's path.
type RasterSource struct {
	Raster *dsm.Raster
	NoData *geom.Mask // nil = full coverage
}

// Bounds returns the wrapped raster's rectangle.
func (s *RasterSource) Bounds() geom.Rect { return s.Raster.Bounds() }

// CellSize returns the wrapped raster's pitch in metres.
func (s *RasterSource) CellSize() float64 { return s.Raster.CellSize() }

// Window copies rect out of the wrapped raster with the origin set,
// mirroring WindowedReader.Window semantics.
func (s *RasterSource) Window(rect geom.Rect) (*dsm.Raster, *geom.Mask, error) {
	r, err := newWindow(rect, s.Raster.Bounds(), s.Raster.CellSize())
	if err != nil {
		return nil, nil, err
	}
	var mask *geom.Mask
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			local := geom.Cell{X: x - rect.X0, Y: y - rect.Y0}
			r.Set(local, s.Raster.At(geom.Cell{X: x, Y: y}))
			if s.NoData != nil && s.NoData.Get(geom.Cell{X: x, Y: y}) {
				if mask == nil {
					mask = geom.NewMask(rect.W(), rect.H())
				}
				mask.Set(local, true)
			}
		}
	}
	return r, mask, nil
}

// newWindow allocates the raster for rect, which must be nonempty and
// inside bounds, with its origin at rect's anchor.
func newWindow(rect, bounds geom.Rect, cellSize float64) (*dsm.Raster, error) {
	if rect.Empty() {
		return nil, fmt.Errorf("gis: empty window %v", rect)
	}
	if rect.Intersect(bounds) != rect {
		return nil, fmt.Errorf("gis: window %v outside grid %v", rect, bounds)
	}
	r, err := dsm.NewRaster(rect.W(), rect.H(), cellSize)
	if err != nil {
		return nil, err
	}
	r.SetOrigin(rect.Anchor())
	return r, nil
}
