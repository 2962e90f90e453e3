// Package horizon precomputes per-cell azimuthal horizon maps from a
// DSM, turning the shadow test the paper needs at every grid point and
// 15-minute timestep (§IV) into an O(1) lookup. This is the same
// device GRASS r.horizon/r.sun use: for each cell, store the maximum
// obstruction elevation per azimuth sector; a cell is beam-shadowed at
// an instant iff the sun's elevation is below the stored horizon in
// the sun's azimuth sector.
//
// There is one march path. BuildMask marches the cells set in a mask
// over a region on a bounded worker pool; BuildRegions is BuildMask
// over the union of a list of regions (the tile map district runs
// share), and Build is BuildRegions over one rect. The solar field's
// per-roof build marches the suitable cells; the others hold +0 and
// are never read. Each ray walks its sector's sample table, built once
// per build: a march distance and an integer cell step from the
// marching cell per entry, so a sample costs two adds instead of two
// divides and two floors. An entry within 2⁻⁴⁴·span/cs cells of a cell
// edge (span bounds every coordinate) is ambiguous, and the ray
// computes its cell with the float expression; an entry that repeats
// the last certain step is left out, as it reads the same cell farther
// away. Each ray stops as soon as no sample left on it can raise its
// horizon: every build first takes eight octant max tables over
// 8×8-cell blocks, and they bound what lies ahead of a ray in its own
// direction. A ray also divides only for the samples that can win.
// None of this changes an output bit (see kernel.sector).
package horizon

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// Options tunes horizon-map construction.
type Options struct {
	// Sectors is the azimuth discretisation (default 64 ≈ 5.6°
	// sectors, narrower than the sun's 15-minute azimuth travel).
	Sectors int
	// MaxDistanceM bounds the ray march (default 80 m — obstacles
	// beyond that subtend negligible angles for rooftop features).
	MaxDistanceM float64
	// NearStepM is the march step inside NearFieldM (default half a
	// cell: thin pipes and chimney edges are resolved).
	NearStepM float64
	// NearFieldM is the fine-march radius (default 12 m).
	NearFieldM float64
	// FarStepM is the march step beyond the near field (default 0.5 m).
	FarStepM float64
	// EyeHeightM lifts the observation point above the surface
	// (default 0.05 m — the module plane sits just above the roof).
	EyeHeightM float64
}

// Resolved returns the options with all defaults applied for the
// given raster cell size — the exact parameter set Build marches with.
// Callers that need to compare two option values for build
// equivalence (e.g. deciding whether a shared tile-level map can
// stand in for a per-roof build) must compare resolved values, since
// distinct unresolved values can resolve to the same march.
func (o Options) Resolved(cellSize float64) Options { return o.withDefaults(cellSize) }

func (o Options) withDefaults(cellSize float64) Options {
	if o.Sectors == 0 {
		o.Sectors = 64
	}
	if o.MaxDistanceM == 0 {
		o.MaxDistanceM = 80
	}
	if o.NearStepM == 0 {
		o.NearStepM = cellSize / 2
	}
	if o.NearFieldM == 0 {
		o.NearFieldM = 12
	}
	if o.FarStepM == 0 {
		o.FarStepM = 0.5
	}
	if o.EyeHeightM == 0 {
		o.EyeHeightM = 0.05
	}
	return o
}

func (o Options) validate() error {
	if o.Sectors < 4 {
		return fmt.Errorf("horizon: need at least 4 sectors, got %d", o.Sectors)
	}
	if o.MaxDistanceM <= 0 || o.NearStepM <= 0 || o.FarStepM <= 0 {
		return fmt.Errorf("horizon: non-positive march parameters")
	}
	if o.NearFieldM < 0 || o.EyeHeightM < 0 {
		return fmt.Errorf("horizon: negative near field or eye height")
	}
	return nil
}

// Map stores per-cell horizon tangents for a rectangular region of a
// DSM. Cells are indexed region-locally in row-major order.
type Map struct {
	region  geom.Rect
	sectors int
	// opts records the resolved build options the map was ray-marched
	// with; slices inherit them and the binary encoding carries them.
	opts Options
	// tan[cell*sectors+s] is the tangent of the horizon elevation in
	// sector s. float32 halves memory with no meaningful precision
	// loss (the sun's disc is half a degree wide).
	tan []float32
	svf []float32 // per-cell sky view factor
}

// buildCount tallies ray-marched builds process-wide; cache tests use
// it to assert that warm runs construct no horizon maps.
var buildCount atomic.Uint64

// BuildCount reports how many times BuildMask has ray-marched a
// horizon map in this process, counting the calls that Build and
// BuildRegions make: the per-roof masked build and the tile-level
// build each count once. Maps decoded with UnmarshalBinary (the
// persistent artifact cache), slices and calls rejected by validation
// do not count.
func BuildCount() uint64 { return buildCount.Load() }

// Build computes the horizon map for every cell of region (given in
// raster coordinates) of the DSM. It is BuildRegions over the one
// rect with one worker per CPU.
func Build(r *dsm.Raster, region geom.Rect, opts Options) (*Map, error) {
	return BuildRegions(r, []geom.Rect{region}, opts, 0)
}

// rowBlock is how many rows of the marched region a worker claims at
// a time: small enough that the pool stays balanced when obstacles
// make some rows dearer than others.
const rowBlock = 2

// BuildRegions computes one horizon map whose region is the bounding
// rectangle of the given regions, ray-marching only the cells covered
// by at least one region — each unique cell exactly once, however many
// regions overlap it. Cells of the bounding rectangle outside every
// region are left at zero (fully open horizon) and must not be read:
// Slice out one of the requested regions instead. This is the
// tile-level build district runs share across roofs; it counts as a
// single build in BuildCount. It is BuildMask over the bounding
// rectangle with the covered cells set.
func BuildRegions(r *dsm.Raster, regions []geom.Rect, opts Options, workers int) (*Map, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("horizon: BuildRegions with no regions")
	}
	bbox := regions[0]
	for _, reg := range regions {
		if reg.Empty() {
			return nil, fmt.Errorf("horizon: empty region %v", reg)
		}
		bbox = bbox.Union(reg)
	}
	covered := geom.NewMask(bbox.W(), bbox.H())
	for _, reg := range regions {
		covered.SetRect(geom.Rect{
			X0: reg.X0 - bbox.X0, Y0: reg.Y0 - bbox.Y0,
			X1: reg.X1 - bbox.X0, Y1: reg.Y1 - bbox.Y0,
		}, true)
	}
	return BuildMask(r, bbox, covered, opts, workers)
}

// BuildMask computes the horizon map of region (raster coordinates),
// ray-marching only the cells set in cells, a region-local mask of
// the region's size. Every other cell holds +0 (fully open horizon,
// zero sky view factor) and must not be read. A marched cell's
// tangents and sky view factor are bit-identical to those of a build
// over the whole region. This is the per-roof build: the solar field
// marches the roof's suitable cells only. It counts as one build in
// BuildCount.
//
// workers bounds the construction concurrency (0 = one per CPU,
// 1 = serial, on the calling goroutine). Workers claim blocks of
// rows from a shared counter and march each cell into its own slot of
// the map, so the result is bit-identical for every worker count.
func BuildMask(r *dsm.Raster, region geom.Rect, cells *geom.Mask, opts Options, workers int) (*Map, error) {
	opts = opts.withDefaults(r.CellSize())
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if region.Empty() {
		return nil, fmt.Errorf("horizon: empty region %v", region)
	}
	if region.Intersect(r.Bounds()) != region {
		return nil, fmt.Errorf("horizon: region %v exceeds raster bounds %v", region, r.Bounds())
	}
	w, h := region.W(), region.H()
	if cells == nil || cells.W() != w || cells.H() != h {
		return nil, fmt.Errorf("horizon: cell mask does not match the %dx%d region %v", w, h, region)
	}
	buildCount.Add(1)
	m := &Map{
		region:  region,
		sectors: opts.Sectors,
		opts:    opts,
		tan:     make([]float32, region.Area()*opts.Sectors),
		svf:     make([]float32, region.Area()),
	}
	k := newKernel(r, opts)
	march := func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				if !cells.Get(geom.Cell{X: x, Y: y}) {
					continue
				}
				idx := y*w + x
				m.svf[idx] = k.cell(geom.Cell{X: region.X0 + x, Y: region.Y0 + y},
					m.tan[idx*opts.Sectors:(idx+1)*opts.Sectors])
			}
		}
	}
	blocks := (h + rowBlock - 1) / rowBlock
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		march(0, h)
		return m, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int(next.Add(1) - 1); b < blocks; b = int(next.Add(1) - 1) {
				march(b*rowBlock, min((b+1)*rowBlock, h))
			}
		}()
	}
	wg.Wait()
	return m, nil
}

// kernel is the per-build ray-march state, shared read-only by every
// worker: the raster's elevations, the octant max tables and the
// sector rays with their sample tables.
type kernel struct {
	r        *dsm.Raster
	z        []float64 // raster elevations, row-major
	w, h     int
	cellSize float64
	origin   geom.Cell
	eye      float64
	// zTop bounds every sample a ray can read: the raster's highest
	// elevation, or the 0 that reads outside the raster return.
	zTop float64
	tw   int   // row length of the octant tables, in blocks
	rays []ray // one per sector
}

// ray is one sector's plan direction, its sample table and the octant
// table that bounds what lies ahead of it.
type ray struct {
	dx, dy float64 // plan direction (east, south)
	// samples is the ray's sample table, nearest first; every ray's
	// table shares one backing array.
	samples []sample
	// ahead is the max table of the ray's octant, or nil when rounding
	// could carry the ray's cells out of the table's cone; minor is the
	// table offset of one block along the octant's minor axis.
	ahead []float32
	minor int
}

// sample is one entry of a ray's sample table: a march distance d and
// the cell step (sx, sy) from the marching cell to the cell the ray
// reads there, or sx = ambiguous when rounding could decide that cell
// and the ray computes it from d (see kernel.sector).
type sample struct {
	d      float64
	sx, sy int32
}

// ambiguous marks a sample whose cell the ray computes from d. A
// certain step is at most 2³⁰ in magnitude, so it never collides.
const ambiguous = math.MinInt32

// blockShift sets the octant tables' block size: 8×8 cells.
const blockShift = 3

func newKernel(r *dsm.Raster, opts Options) *kernel {
	k := &kernel{
		r:        r,
		z:        r.Elevations(),
		w:        r.W(),
		h:        r.H(),
		cellSize: r.CellSize(),
		origin:   r.Origin(),
		eye:      opts.EyeHeightM,
	}
	dist := schedule(opts)
	var tables [8][]float32
	tables, k.tw, k.zTop = octantTables(k.z, k.w, k.h)

	// A ray's sample cells stay in its octant table's cone when the
	// computed positions of any two samples differ at least as much
	// along the major axis as along the minor one (see sector). The
	// exact differences are |dx|·Δd and |dy|·Δd with Δd ≥ gap. Each
	// computed coordinate (a multiply, an add and a divide) is off by
	// under 4·2⁻⁵³·span metres, span bounding every |coordinate|, and
	// two samples on two axes carry four such errors, under 2⁻⁴⁹·span
	// together. So a margin (|major| − |minor|)·gap above 2⁻⁴⁸·span
	// suffices. Sectors whose bisector lies within rounding of a
	// diagonal fail it (the exact diagonals of 4, 12, …, 60 sectors
	// among them) and march with zTop alone.
	ox, oy := k.origin.X, k.origin.Y
	span := float64(max(abs(ox), abs(ox+k.w), abs(oy), abs(oy+k.h))+1)*k.cellSize + opts.MaxDistanceM
	gap := math.Inf(1)
	for i := 1; i < len(dist); i++ {
		gap = min(gap, dist[i]-dist[i-1])
	}
	// A sample's cell step is certain when it lies at least margin
	// cells from a cell edge (see sector).
	margin := max(0x1p-44*span, 0x1p-1000) / k.cellSize
	// Raster y grows southward.
	k.rays = make([]ray, opts.Sectors)
	buf := make([]sample, 0, len(dist))
	n := 0
	for s := range k.rays {
		az := (float64(s) + 0.5) * 2 * math.Pi / float64(opts.Sectors)
		dx, dy := math.Sin(az), -math.Cos(az) // east, south = -north
		k.rays[s] = ray{dx: dx, dy: dy}
		if math.Abs(math.Abs(dx)-math.Abs(dy))*gap > 0x1p-48*span {
			o, minor := octant(dx, dy, k.tw)
			k.rays[s].ahead, k.rays[s].minor = tables[o], minor
		}
		n += len(appendSamples(buf[:0], dist, dx, dy, k.cellSize, margin))
	}
	// The tables are counted first, so one exactly sized array holds
	// them all.
	all := make([]sample, 0, n)
	for s := range k.rays {
		ry := &k.rays[s]
		i := len(all)
		all = appendSamples(all, dist, ry.dx, ry.dy, k.cellSize, margin)
		ry.samples = all[i:len(all):len(all)]
	}
	return k
}

// schedule returns the march distances of opts, nearest first: the
// same additions in the same order as a ray stepping outward, so every
// distance is the float a step-by-step walk would reach.
func schedule(opts Options) []float64 {
	var dist []float64
	for d := opts.NearStepM; d <= opts.MaxDistanceM; {
		dist = append(dist, d)
		if d < opts.NearFieldM {
			d += opts.NearStepM
		} else {
			d += opts.FarStepM
		}
	}
	return dist
}

// appendSamples appends the sample table of plan direction (dx, dy)
// over the distances dist to dst: one entry per distance, except that
// a certain cell step equal to the last certain step kept is left out
// (see sector).
func appendSamples(dst []sample, dist []float64, dx, dy, cs, margin float64) []sample {
	lastX, lastY := int32(ambiguous), int32(ambiguous)
	for _, d := range dist {
		sx, okX := cellStep(dx*d/cs, margin)
		sy, okY := cellStep(dy*d/cs, margin)
		if !okX || !okY {
			dst = append(dst, sample{d: d, sx: ambiguous})
			continue
		}
		if sx == lastX && sy == lastY {
			continue
		}
		dst = append(dst, sample{d: d, sx: sx, sy: sy})
		lastX, lastY = sx, sy
	}
	return dst
}

// cellStep returns ⌊0.5 + t⌋, the cell step of a ray that travels t
// cells from a cell centre, and whether it is certain: 0.5 + t lies at
// least margin from every integer and the step is at most 2³⁰ in
// magnitude. NaN fails both tests.
func cellStep(t, margin float64) (int32, bool) {
	f := 0.5 + t
	if !(math.Abs(f-math.Round(f)) >= margin && math.Abs(f) <= 0x1p30) {
		return 0, false
	}
	return int32(math.Floor(f)), true
}

// octant returns the octant table of plan direction (dx, dy), in
// octantTables' numbering, and the offset of one block along its
// minor axis in a table of row length tw.
func octant(dx, dy float64, tw int) (o, minor int) {
	sx, sy := 1, tw
	if dx < 0 {
		o, sx = o|2, -1
	}
	if dy < 0 {
		o, sy = o|1, -tw
	}
	if math.Abs(dy) > math.Abs(dx) {
		return o | 4, sx
	}
	return o, sy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// octantTables builds the eight octant max tables over 8×8-cell
// blocks and returns them with their row length tw and the raster's
// highest value or 0, whichever is larger. Octant o has its major axis
// along y when o&4 is set, and steps -x when o&2 is set and -y when
// o&1 is. Each table carries a one-block border on every side; block
// (bx, by) sits at (by+1)·tw + bx+1.
//
// A block's max starts at 0, the value a partial block's cells past
// the raster edge read, and NaN never wins (z > m). The tables hold
// float32 values rounded up, half the memory of float64, and so still
// bound every elevation they cover. An octant's entry
// M[b] = max(blockmax[b], M[b+major], M[b+major+minor]) then bounds
// every cell of the blocks at (a, c) steps of b, a along the octant's
// major direction and c along its minor one, with 0 ≤ c ≤ a: by
// induction, the two successors cover a ≥ 1 with c ≤ a−1 and
// 1 ≤ c ≤ a. The border holds 0, which is exact for every border
// block a table reads: it lies ahead of the raster in the octant's
// direction, so its cone holds only cells outside the raster.
func octantTables(z []float64, w, h int) (tables [8][]float32, tw int, top float64) {
	nbx, nby := (w+1<<blockShift-1)>>blockShift, (h+1<<blockShift-1)>>blockShift
	tw = nbx + 2
	n := tw * (nby + 2)
	all := make([]float32, 8*n)
	for o := range tables {
		tables[o] = all[o*n : (o+1)*n : (o+1)*n]
	}
	// The block maxima go into octant 7's table, which is then filled
	// in place: each entry reads its own block max before writing it,
	// and its two successors are final by then. That saves a ninth
	// table's allocation.
	bm := tables[7]
	for y := range h {
		bi := (y>>blockShift+1)*tw + 1
		for x, v := range z[y*w : (y+1)*w] {
			if v > top {
				top = v
			}
			if b := bi + x>>blockShift; v > float64(bm[b]) {
				bm[b] = up32(v)
			}
		}
	}
	for o := range tables {
		if o != 7 {
			fill(tables[o], bm, o, nbx, nby, tw)
		}
	}
	fill(bm, bm, 7, nbx, nby, tw)
	return tables, tw, top
}

// up32 rounds v > 0 up to a float32.
func up32(v float64) float32 {
	if v > math.MaxFloat32 {
		return float32(math.Inf(1))
	}
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// fill computes octant o's max table into t from the block maxima bm
// (t may be bm), walking the major axis from its far end so each
// entry's successors are final when it is written.
func fill(t, bm []float32, o, nbx, nby, tw int) {
	sx, sy := 1, tw
	if o&2 != 0 {
		sx = -1
	}
	if o&1 != 0 {
		sy = -tw
	}
	major, minor := sx, sy
	nMajor, nMinor, stepMajor, stepMinor := nbx, nby, 1, tw
	if o&4 != 0 {
		major, minor = sy, sx
		nMajor, nMinor, stepMajor, stepMinor = nby, nbx, tw, 1
	}
	diag := major + minor
	for i := range nMajor {
		// The far end comes first: the last block along +major, the
		// first along -major.
		j := i
		if major > 0 {
			j = nMajor - 1 - i
		}
		b := tw + 1 + j*stepMajor
		for range nMinor {
			t[b] = max(bm[b], t[b+major], t[b+diag])
			b += stepMinor
		}
	}
}

// cell ray-marches every sector of one cell (raster coordinates),
// writing the horizon tangents into tan (len = sectors) and returning
// the cell's sky view factor. The result depends only on the raster
// and the cell — not on which region the map covers — which is what
// makes a view sliced from a larger map bit-identical to a direct
// build.
func (k *kernel) cell(c geom.Cell, tan []float32) float32 {
	x0, y0 := k.r.CellCenterMetres(c)
	z0 := k.r.At(c) + k.eye
	rise := k.zTop - z0
	var svfSum float64
	for s := range k.rays {
		t := k.sector(c, x0, y0, z0, rise, &k.rays[s])
		tan[s] = float32(t)
		svfSum += 1 / (1 + t*t) // cos² of the horizon elevation
	}
	return float32(svfSum / float64(len(k.rays)))
}

// sector walks outward from (x0,y0,z0), the centre of cell c, along
// the ray's plan direction and returns the maximum obstruction tangent
// (z − z0)/d over its samples, or 0. Samples are nearest-cell reads in
// global cell space (the float arithmetic of dsm.Raster.AtMetres);
// outside the raster they read 0. The result is the full walk's, bit
// for bit: the ray skips only divisions and samples that cannot change
// it, and finds each sample's cell without dividing where that cannot
// change it either.
//
// The table. At distance d the full walk reads the cell whose x is
// ⌊(x0 + dx·d)/cs⌋ in global cells, with x0 = (gx + 0.5)·cs for the
// marching cell's global gx; as reals that is gx + ⌊0.5 + dx·d/cs⌋,
// and y likewise. The ray's sample table holds that step once per
// build. The walk's computed position is off from the real one by
// under 2⁻⁵⁰·span/cs cells: six roundings of at most 2⁻⁵³ relative
// (three in x0, the multiply, the add and the divide), each of a value
// within span metres or span/cs cells. The table's 0.5 + dx·d/cs takes
// three, under 2⁻⁵¹·span/cs. A fused multiply-add only drops one
// rounding, so both bounds hold whether or not the compiler fuses
// x0 + dx·d. Where the table's value lies at least margin =
// 2⁻⁴⁴·span/cs from every integer, the real value is more than
// 2⁻⁵⁰·span/cs from one too, and the walk's floor is c + step
// exactly; underflow adds under 2⁻¹⁰⁷³ metres, which the margin's
// floor of 2⁻¹⁰⁰⁰/cs covers. Any other entry, and any step above 2³⁰
// in magnitude, is ambiguous: the ray computes its cell with the
// walk's own float expression.
//
// The repeats. An entry whose certain step equals the last certain
// step kept is left out: the walk reads the same cell, so the same
// n = z − z0, at a larger d. Once the earlier sample is done, maxTan
// ≥ fl(n/d_prev), whether it divided or the filter skipped it, and
// maxTan never falls. Division rounds monotonically, so for n > 0
// fl(n/d) ≤ fl(n/d_prev); for n ≤ 0 or NaN the tangent cannot exceed
// maxTan ≥ 0 either. So the left-out sample can never win, and the
// exits it would check only come later, at the next kept entry.
//
// The filter. With lo = maxTan·(1−1e-12) rounded, p = lo·d − 1e-300
// lies below maxTan·d as a real whenever that product is finite and
// normal: the rounding of the two products is relatively far below
// 1e-12. When it is subnormal, the 1e-300 outweighs its absolute
// rounding; this holds whether or not the multiply and subtract are
// fused. When lo·d overflows, p = +Inf and maxTan·d exceeds every
// finite float. Either way v < p implies v < maxTan·d, so the float
// v/d ≤ maxTan. A sample whose n = z − z0 is below p therefore cannot
// win, and its division is skipped. A NaN n fails n ≥ p, as its NaN
// tangent would fail t > maxTan; ±Inf order the same in both tests.
//
// The exits. Float subtraction is monotone and d only grows, so if a
// bound B is at least every later sample's z (0 outside the raster),
// then B − z0 < p means no later sample can win, and the ray stops
// with the full walk's result. Three bounds are checked, cheapest
// first:
//   - zTop (rise = zTop − z0), at every sample;
//   - 0 once a sample falls outside the raster: the ray starts inside,
//     and each cell coordinate is monotone in d, so it never comes
//     back and every later sample reads 0;
//   - the octant table, every 8th table entry: max(M[b], M[b+minor]) at
//     the sample's block b. A later sample's cell lies a cells on along
//     the major axis and c along the minor one, both ≥ 0 as each
//     coordinate is monotone. c is less than the computed minor travel
//     plus 1 and a is more than the computed major travel minus 1, so
//     0 ≤ c ≤ a+1 whenever the minor travel does not exceed the major
//     one. newKernel keeps the table only where rounding cannot break
//     that; on an exact diagonal it can. Over 8×8 blocks, with the
//     sample at (px, py) inside its block, the block steps are
//     ⌊(px+a)/8⌋ ≥ ⌊a/8⌋ and ⌊(py+c)/8⌋ ≤ ⌊(7+a+1)/8⌋ = ⌊a/8⌋+1, so
//     they too lie within 0 ≤ c ≤ a+1, which M[b] (c ≤ a) and
//     M[b+minor] (1 ≤ c ≤ a+1) cover between them.
//
// Every sample the table keeps reads the walk's own cell, so these
// arguments hold for its entries as they did for every step.
//
// A NaN z0 makes every test false, and the walk runs to the end with
// tangent 0, as the full walk does.
func (k *kernel) sector(c geom.Cell, x0, y0, z0, rise float64, ray *ray) float64 {
	zs, w, h, cs := k.z, k.w, k.h, k.cellSize
	ox, oy, tw := k.origin.X, k.origin.Y, k.tw
	dx, dy, ahead, minor := ray.dx, ray.dy, ray.ahead, ray.minor
	maxTan, lo := 0.0, 0.0
	for i, e := range ray.samples {
		d := e.d
		p := lo*d - 1e-300
		if rise < p {
			break
		}
		x, y := c.X+int(e.sx), c.Y+int(e.sy)
		if e.sx == ambiguous {
			x = int(math.Floor((x0+dx*d)/cs)) - ox
			y = int(math.Floor((y0+dy*d)/cs)) - oy
		}
		z := 0.0
		if uint(x) < uint(w) && uint(y) < uint(h) {
			if i&7 == 0 && ahead != nil {
				b := (y>>blockShift+1)*tw + x>>blockShift + 1
				if float64(max(ahead[b], ahead[b+minor]))-z0 < p {
					break
				}
			}
			z = zs[y*w+x]
		} else if -z0 < p {
			break
		}
		if n := z - z0; n >= p {
			if t := n / d; t > maxTan {
				maxTan, lo = t, t*(1-1e-12)
			}
		}
	}
	return maxTan
}

// Covers reports whether sub lies entirely inside the map's region.
func (m *Map) Covers(sub geom.Rect) bool {
	return !sub.Empty() && sub.Intersect(m.region) == sub
}

// Slice copies the sub-rectangle's horizon data out of the map as a
// standalone Map over sub. Because each cell's horizon depends only on
// the raster and the cell itself, the slice is bit-identical to a
// direct Build over sub with the same options — provided every cell of
// sub was actually marched (for maps from BuildRegions, sub must lie
// inside one of the requested regions, or a union of them). Slicing
// never ray-marches and does not count in BuildCount.
func (m *Map) Slice(sub geom.Rect) (*Map, error) {
	if !m.Covers(sub) {
		return nil, fmt.Errorf("horizon: slice %v outside map region %v", sub, m.region)
	}
	out := &Map{
		region:  sub,
		sectors: m.sectors,
		opts:    m.opts,
		tan:     make([]float32, sub.Area()*m.sectors),
		svf:     make([]float32, sub.Area()),
	}
	sw := sub.W()
	for y := 0; y < sub.H(); y++ {
		src := (sub.Y0-m.region.Y0+y)*m.region.W() + (sub.X0 - m.region.X0)
		dst := y * sw
		copy(out.svf[dst:dst+sw], m.svf[src:src+sw])
		copy(out.tan[dst*m.sectors:(dst+sw)*m.sectors], m.tan[src*m.sectors:(src+sw)*m.sectors])
	}
	return out, nil
}

// BuildOptions returns the resolved options the map was ray-marched
// with. A decoded map reports the options its encoding carries; a
// cache that keys the artifact by those options can compare them with
// the options its fingerprint names.
func (m *Map) BuildOptions() Options { return m.opts }

// Sectors returns the azimuth discretisation of the map.
func (m *Map) Sectors() int { return m.sectors }

// Region returns the raster region the map covers.
func (m *Map) Region() geom.Rect { return m.region }

func (m *Map) sectorOf(azimuthRad float64) int {
	az := math.Mod(azimuthRad, 2*math.Pi)
	if az < 0 {
		az += 2 * math.Pi
	}
	s := int(az / (2 * math.Pi) * float64(m.sectors))
	if s >= m.sectors {
		s = m.sectors - 1
	}
	return s
}

// ShadowedIdx reports whether the beam is blocked at the dense-index
// cell for a sun in the given sector whose elevation has the given
// tangent. This is the field evaluator's allocation-free hot path: the
// caller precomputes the sector and tangent once per timestep.
func (m *Map) ShadowedIdx(cellIdx, sector int, tanElev float64) bool {
	return tanElev < float64(m.tan[cellIdx*m.sectors+sector])
}

// TanRow returns the per-sector horizon tangents of the dense-index
// cell — the sector-sweep statistics kernel reads one row per cell
// instead of calling ShadowedIdx per timestep. The slice aliases the
// map's storage: read-only.
func (m *Map) TanRow(cellIdx int) []float32 {
	return m.tan[cellIdx*m.sectors : (cellIdx+1)*m.sectors]
}

// SectorOf exposes the sector quantisation for hot-path callers that
// precompute it once per timestep.
func (m *Map) SectorOf(azimuthRad float64) int { return m.sectorOf(azimuthRad) }

// SVFIdx returns the sky view factor of the dense-index cell: the
// fraction of the isotropic sky dome left visible by the terrain
// horizon (1 = unobstructed). The plane-of-array model multiplies
// this into the diffuse component.
func (m *Map) SVFIdx(cellIdx int) float64 { return float64(m.svf[cellIdx]) }

// mapHeaderLen is the fixed head of the binary encoding: the region's
// four corners, the sector count and the five march distances.
const mapHeaderLen = 10 * 8

// MarshalBinary encodes the map as little-endian bits: the region
// (X0, Y0, X1, Y1) and the sector count as int64, and the resolved
// march options MaxDistanceM, NearStepM, NearFieldM, FarStepM and
// EyeHeightM as float64. The values follow as one stream, every horizon
// tangent and then every sky view factor: a bitmap with bit i set when
// value i is not +0 (bit i%8 of byte i/8), then the float32 bits of
// each set value in order. Most values of a tile map are +0 — open-sky
// sectors and cells outside every marched region — so the bitmap cuts
// the demo district's tile maps to a fifth to a third of the flat
// size. UnmarshalBinary restores a bit-identical map.
func (m *Map) MarshalBinary() ([]byte, error) {
	vals := [2][]float32{m.tan, m.svf}
	nb, set := (len(m.tan)+len(m.svf)+7)/8, 0
	for _, arr := range vals {
		for _, v := range arr {
			if math.Float32bits(v) != 0 {
				set++
			}
		}
	}
	b := make([]byte, 0, mapHeaderLen+nb+4*set)
	for _, v := range [...]int{m.region.X0, m.region.Y0, m.region.X1, m.region.Y1, m.sectors} {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	o := m.opts
	for _, v := range [...]float64{o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = b[:len(b)+nb] // the bitmap, zero as allocated
	bitmap := b[len(b)-nb:]
	i := 0
	for _, arr := range vals {
		for _, v := range arr {
			if u := math.Float32bits(v); u != 0 {
				bitmap[i/8] |= 1 << (i % 8)
				b = binary.LittleEndian.AppendUint32(b, u)
			}
			i++
		}
	}
	return b, nil
}

// UnmarshalBinary decodes a MarshalBinary encoding into m. The header
// must describe a non-empty region and valid options, and the bitmap
// and set values must account for the body exactly, with no set bit on
// a +0 value or past the last value; a truncated, padded or
// inconsistent encoding is an error. The header is checked against the
// body before anything is allocated, so no input can make the decoder
// allocate more than 32 bytes per input byte.
func (m *Map) UnmarshalBinary(data []byte) error {
	if len(data) < mapHeaderLen {
		return fmt.Errorf("horizon: %d-byte map encoding is shorter than its header", len(data))
	}
	var h [10]uint64
	for i := range h {
		h[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	region := geom.Rect{X0: int(int64(h[0])), Y0: int(int64(h[1])), X1: int(int64(h[2])), Y1: int(int64(h[3]))}
	opts := Options{
		Sectors:      int(int64(h[4])),
		MaxDistanceM: math.Float64frombits(h[5]),
		NearStepM:    math.Float64frombits(h[6]),
		NearFieldM:   math.Float64frombits(h[7]),
		FarStepM:     math.Float64frombits(h[8]),
		EyeHeightM:   math.Float64frombits(h[9]),
	}
	if err := opts.validate(); err != nil {
		return err
	}
	if region.Empty() {
		return fmt.Errorf("horizon: empty map region %v", region)
	}
	// Every cell holds sectors tangents and one sky view factor, each
	// one bitmap bit. The products are formed only once each factor is
	// known to fit the bitmap the body can hold, so none can overflow.
	body := data[mapHeaderLen:]
	maxVals := 8 * uint64(len(body))
	w := uint64(region.X1) - uint64(region.X0)
	ht := uint64(region.Y1) - uint64(region.Y0)
	per := uint64(opts.Sectors) + 1
	if w > maxVals || ht > maxVals/w || per > maxVals/(w*ht) {
		return fmt.Errorf("horizon: %d-byte map body cannot hold region %v x %d sectors",
			len(body), region, opts.Sectors)
	}
	n := int(w * ht * per)
	bitmap, lits := body[:(n+7)/8], body[(n+7)/8:]
	set := 0
	for _, c := range bitmap {
		set += bits.OnesCount8(c)
	}
	if len(lits) != 4*set {
		return fmt.Errorf("horizon: map bitmap sets %d values, body holds %d bytes of them", set, len(lits))
	}
	if r := n % 8; r != 0 && bitmap[len(bitmap)-1]>>r != 0 {
		return fmt.Errorf("horizon: map bitmap sets bits past its %d values", n)
	}
	vals := make([]float32, n)
	for j, c := range bitmap {
		for ; c != 0; c &= c - 1 {
			v := binary.LittleEndian.Uint32(lits)
			if v == 0 {
				return fmt.Errorf("horizon: map bitmap marks a +0 value")
			}
			vals[8*j+bits.TrailingZeros8(c)] = math.Float32frombits(v)
			lits = lits[4:]
		}
	}
	area := int(w * ht)
	split := area * opts.Sectors
	*m = Map{region: region, sectors: opts.Sectors, opts: opts, tan: vals[:split:split], svf: vals[split:]}
	return nil
}
