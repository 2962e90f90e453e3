// Package dsm models the Digital Surface Model — the high-resolution
// elevation raster that GIS pipelines derive from LiDAR surveys and
// that the paper uses (§IV) to recognise roof encumbrances and to
// compute shadow evolution. Since the paper's LiDAR rasters of the
// three Turin roofs are proprietary, this package also provides a
// synthetic scene builder that constructs equivalent DSMs: tilted roof
// planes populated with parameterised obstacles (pipe runs, chimneys,
// dormers, HVAC cabinets) and surrounded by taller structures, so the
// downstream pipeline (suitable-area extraction, horizon maps, shadow
// simulation) exercises exactly the code paths real LiDAR data would.
package dsm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// Raster is a regular elevation grid. Heights are in metres above an
// arbitrary datum; the cell size is the ground-plan pitch in metres
// (the paper's virtual grid uses s = 0.20 m).
//
// A raster may be a window into a larger city grid: origin records the
// window's offset in global cells. Cell addressing (At/Set/Bounds)
// stays local, but the metric methods (AtMetres, CellCenterMetres)
// work in global coordinates so horizon ray-marching over a window
// performs bit-for-bit the same float operations as over the full
// grid — the property the city pipeline's equivalence guarantee
// rests on.
type Raster struct {
	w, h     int
	cellSize float64
	origin   geom.Cell
	z        []float64
	// hash memoizes ContentHash; every mutator clears it.
	hash atomic.Pointer[string]
}

// NewRaster allocates a w×h raster with the given cell size in
// metres, initialised to elevation zero.
func NewRaster(w, h int, cellSize float64) (*Raster, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("dsm: non-positive raster dims %dx%d", w, h)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("dsm: non-positive cell size %g", cellSize)
	}
	return &Raster{w: w, h: h, cellSize: cellSize, z: make([]float64, w*h)}, nil
}

// W returns the raster width in cells.
func (r *Raster) W() int { return r.w }

// H returns the raster height in cells.
func (r *Raster) H() int { return r.h }

// CellSize returns the grid pitch in metres.
func (r *Raster) CellSize() float64 { return r.cellSize }

// Bounds returns the full raster rectangle in local cells.
func (r *Raster) Bounds() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: r.w, Y1: r.h} }

// Origin returns the raster's offset, in cells, from the global grid
// origin. Stand-alone rasters have origin (0,0).
func (r *Raster) Origin() geom.Cell { return r.origin }

// SetOrigin marks the raster as a window whose local cell (0,0) sits
// at global cell o. Only the metric accessors and ContentHash observe
// the origin.
func (r *Raster) SetOrigin(o geom.Cell) {
	r.origin = o
	r.hash.Store(nil)
}

// InBounds reports whether c addresses a raster cell.
func (r *Raster) InBounds(c geom.Cell) bool {
	return c.X >= 0 && c.X < r.w && c.Y >= 0 && c.Y < r.h
}

// At returns the elevation at cell c. Out-of-bounds reads return 0
// (the ground datum), which is the natural continuation for scenes
// embedded in flat surroundings.
func (r *Raster) At(c geom.Cell) float64 {
	if !r.InBounds(c) {
		return 0
	}
	return r.z[c.Y*r.w+c.X]
}

// Elevations returns the raster's elevations in row-major local cell
// order (index y*W()+x). The slice aliases the raster's storage and is
// read-only: it exists so hot kernels such as the horizon ray march
// can index samples directly instead of calling At per sample. The
// ContentHash memo relies on that contract: a write through this
// slice would leave a stale hash, and with it stale cache keys.
func (r *Raster) Elevations() []float64 { return r.z }

// Set writes the elevation at cell c; out-of-bounds writes panic.
func (r *Raster) Set(c geom.Cell, z float64) {
	if !r.InBounds(c) {
		panic("dsm: Set out of bounds: " + c.String())
	}
	r.z[c.Y*r.w+c.X] = z
	r.hash.Store(nil)
}

// SetRow copies z, which must hold W() elevations, into row y; an
// out-of-bounds row or a short or long z panics.
func (r *Raster) SetRow(y int, z []float64) {
	if y < 0 || y >= r.h || len(z) != r.w {
		panic(fmt.Sprintf("dsm: SetRow %d with %d values on a %dx%d raster", y, len(z), r.w, r.h))
	}
	copy(r.z[y*r.w:], z)
	r.hash.Store(nil)
}

// AtMetres returns the elevation at the plan position (east, south)
// metres from the *global* grid origin, using nearest-cell sampling.
// Points outside the raster read as 0. The floor happens in global
// cell space and the window origin is subtracted as an integer, so a
// window and the full grid resolve any xm, ym to the same cell.
func (r *Raster) AtMetres(xm, ym float64) float64 {
	x := int(math.Floor(xm/r.cellSize)) - r.origin.X
	y := int(math.Floor(ym/r.cellSize)) - r.origin.Y
	return r.At(geom.Cell{X: x, Y: y})
}

// CellCenterMetres returns the plan position of the cell center in
// metres from the *global* grid origin (x grows east, y grows south).
// The origin offset is added in integer cells before the float
// conversion, so the result is bit-identical whether c is addressed
// through a window or through the full grid.
func (r *Raster) CellCenterMetres(c geom.Cell) (xm, ym float64) {
	return (float64(r.origin.X+c.X) + 0.5) * r.cellSize, (float64(r.origin.Y+c.Y) + 0.5) * r.cellSize
}

// ContentHash returns a hex SHA-256 digest of the raster's identity:
// dimensions, cell size and every elevation's exact bit pattern. Two
// rasters share a hash iff they are cell-for-cell identical, so the
// persistent field-artifact cache uses it to key horizon maps — any
// edit to the surface (a new obstacle, a changed height) invalidates
// the cached artifacts derived from it.
//
// The digest is computed once and memoized until the next mutation,
// so the many cache lookups of one tile hash its elevations once.
// Concurrent calls are safe; they may each compute the digest, and
// all return the same string.
func (r *Raster) ContentHash() string {
	if p := r.hash.Load(); p != nil {
		return *p
	}
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.w))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(r.h))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.cellSize))
	h.Write(buf[:])
	for _, z := range r.z {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(z))
		h.Write(buf[:])
	}
	// Windows at distinct global offsets hold distinct physics (their
	// metric methods answer differently), so the origin joins the
	// identity — but only when set, keeping every pre-existing hash of
	// stand-alone rasters (golden corpus, committed fixtures) stable.
	if r.origin != (geom.Cell{}) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.origin.X)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(r.origin.Y)))
		h.Write(buf[:])
	}
	sum := fmt.Sprintf("%x", h.Sum(nil))
	r.hash.Store(&sum)
	return sum
}

// Clone returns a deep copy of the raster, origin included.
func (r *Raster) Clone() *Raster {
	out := &Raster{w: r.w, h: r.h, cellSize: r.cellSize, origin: r.origin, z: make([]float64, len(r.z))}
	copy(out.z, r.z)
	out.hash.Store(r.hash.Load())
	return out
}

// Raise adds dz to every cell of rect (clipped to the raster).
func (r *Raster) Raise(rect geom.Rect, dz float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			r.z[y*r.w+x] += dz
		}
	}
	r.hash.Store(nil)
}

// SetRectTo writes an absolute elevation into every cell of rect
// (clipped to the raster).
func (r *Raster) SetRectTo(rect geom.Rect, z float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			r.z[y*r.w+x] = z
		}
	}
	r.hash.Store(nil)
}

// MaxAbove writes into rect the maximum of the current elevation and
// z (clipped). Obstacle stamping uses this so overlapping features
// keep the taller surface.
func (r *Raster) MaxAbove(rect geom.Rect, z float64) {
	clipped := rect.Intersect(r.Bounds())
	for y := clipped.Y0; y < clipped.Y1; y++ {
		for x := clipped.X0; x < clipped.X1; x++ {
			if r.z[y*r.w+x] < z {
				r.z[y*r.w+x] = z
			}
		}
	}
	r.hash.Store(nil)
}

// Gradient returns Horn's finite-difference gradient at cell c:
// dz/dx toward east and dz/dy toward south, in metres per metre.
// Border cells use the clamped neighbourhood.
func (r *Raster) Gradient(c geom.Cell) (gx, gy float64) {
	at := func(dx, dy int) float64 {
		n := geom.Cell{X: clampInt(c.X+dx, 0, r.w-1), Y: clampInt(c.Y+dy, 0, r.h-1)}
		return r.At(n)
	}
	gx = ((at(1, -1) + 2*at(1, 0) + at(1, 1)) - (at(-1, -1) + 2*at(-1, 0) + at(-1, 1))) / (8 * r.cellSize)
	gy = ((at(-1, 1) + 2*at(0, 1) + at(1, 1)) - (at(-1, -1) + 2*at(0, -1) + at(1, -1))) / (8 * r.cellSize)
	return gx, gy
}

// SlopeAspect returns the surface tilt (radians from horizontal) and
// the downslope azimuth (radians clockwise from north) at cell c,
// derived from the Horn gradient. Flat cells return aspect 0.
func (r *Raster) SlopeAspect(c geom.Cell) (slopeRad, aspectRad float64) {
	gx, gy := r.Gradient(c)
	slopeRad = math.Atan(math.Hypot(gx, gy))
	if gx == 0 && gy == 0 {
		return 0, 0
	}
	// Downslope plan direction: (-gx, -gy) in (east, south) axes,
	// i.e. (east, north) = (-gx, +gy).
	aspectRad = math.Atan2(-gx, gy)
	if aspectRad < 0 {
		aspectRad += 2 * math.Pi
	}
	return slopeRad, aspectRad
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
