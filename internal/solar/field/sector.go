package field

import (
	"sort"
	"sync"

	"repro/internal/stats"
	"repro/internal/weather"
)

// dayTable is the SoA (structure-of-arrays) form of the sky states the
// statistics kernel consumes: night steps are compacted out entirely,
// and the remaining day steps are laid out group-contiguously by
// horizon sector, sorted within each group by ascending solar
// elevation tangent. That layout turns the per-(cell, timestep) shadow
// test of the naive pass into one binary search per (cell, sector):
// the cell's horizon tangent in a sector splits the sorted group into
// a shadowed prefix and a lit suffix, exactly reproducing the per-step
// test tanElev >= horizonTan. Histogram accumulation is count-based
// and order-independent, so reordering the steps is exact.
//
// Summation order: per-cell sums (GMean) accumulate over sectors in
// increasing index and, within a sector, over steps in ascending
// tanElev (ties broken by calendar index — the sort is stable). The
// order is fixed and cell-local, so results are bit-identical for
// every worker count; it differs from the calendar order of the scalar
// reference only in floating-point rounding of the mean (histograms,
// and therefore the percentiles, are unaffected).
type dayTable struct {
	sectors int
	// start[s]..start[s+1] delimit sector s's group in the flat
	// arrays below.
	start []int32
	// tan is sorted ascending within each group; the remaining arrays
	// are aligned with it.
	tan  []float64
	beam []float64
	diff []float64
	refl []float64
	amb  []float64
}

// buildDayTable compacts and regroups the per-step sky states. The
// construction is deterministic: grouping preserves calendar order and
// the per-group sort is stable.
func buildDayTable(sky []skyState, sectors int) dayTable {
	dt := dayTable{sectors: sectors, start: make([]int32, sectors+1)}
	counts := make([]int32, sectors)
	for i := range sky {
		if sky[i].up {
			counts[sky[i].sector]++
		}
	}
	for s := 0; s < sectors; s++ {
		dt.start[s+1] = dt.start[s] + counts[s]
	}
	n := int(dt.start[sectors])
	if n == 0 {
		return dt
	}
	// Calendar indices grouped by sector, calendar order within each
	// group.
	idx := make([]int32, n)
	next := make([]int32, sectors)
	copy(next, dt.start[:sectors])
	for i := range sky {
		if sky[i].up {
			s := sky[i].sector
			idx[next[s]] = int32(i)
			next[s]++
		}
	}
	for s := 0; s < sectors; s++ {
		grp := idx[dt.start[s]:dt.start[s+1]]
		sort.SliceStable(grp, func(a, b int) bool {
			return sky[grp[a]].tanElev < sky[grp[b]].tanElev
		})
	}
	dt.tan = make([]float64, n)
	dt.beam = make([]float64, n)
	dt.diff = make([]float64, n)
	dt.refl = make([]float64, n)
	dt.amb = make([]float64, n)
	for k, i := range idx {
		st := &sky[i]
		dt.tan[k] = st.tanElev
		dt.beam[k] = st.beamPart
		dt.diff[k] = st.diffPart
		dt.refl[k] = st.reflected
		dt.amb[k] = st.ambient
	}
	return dt
}

// statsScratch is the per-worker accumulation state of the sector
// kernel: one raw histogram row per quantity, reused across every cell
// of a chunk (and pooled across passes), replacing the per-cell
// histograms of the scalar reference.
type statsScratch struct {
	g []uint32
	t []uint32
}

var scratchPool = sync.Pool{New: func() any {
	return &statsScratch{g: make([]uint32, gBins), t: make([]uint32, tBins)}
}}

// statsSectorChunk runs the sector-sweep kernel over one contiguous
// run of suitable cells, writing summaries into cs. Chunks share
// nothing writable, so any partition of the suitable cells produces
// bit-identical results.
//
// Per cell: for each horizon sector, a binary search against the
// cell's horizon tangent finds the shadow boundary in the sorted
// group; the shadowed prefix accumulates the diffuse+reflected
// irradiance, the lit suffix additionally adds the beam component —
// no per-sample shadow test, no method-call indirection, and the
// cell's two histogram rows stay resident in L1 while the shared SoA
// table streams through.
func (e *Evaluator) statsSectorChunk(cs *CellStats, cells []int32, scratch *statsScratch) {
	dt := &e.day
	gRow, tRow := scratch.g, scratch.t
	gb := stats.NewBinning(gLo, gHi, gBins)
	tb := stats.NewBinning(tLo, tHi, tBins)
	const k = weather.DefaultThermalK

	withNight := e.night.count > 0
	var nightTact []uint32
	if withNight {
		nightTact = e.night.tact.Counts()
	}
	n := e.daySteps + e.night.count
	zeroBin := gb.Index(0)

	for _, idx := range cells {
		if n == 0 {
			continue // no samples: the cell stays NaN
		}
		for i := range gRow {
			gRow[i] = 0
		}
		for i := range tRow {
			tRow[i] = 0
		}
		svf := e.hmap.SVFIdx(int(idx))
		tans := e.hmap.TanRow(int(idx))
		var gSum float64
		for s := 0; s < dt.sectors; s++ {
			lo, hi := int(dt.start[s]), int(dt.start[s+1])
			if lo == hi {
				continue
			}
			tanS := dt.tan[lo:hi]
			diffS := dt.diff[lo:hi]
			reflS := dt.refl[lo:hi]
			beamS := dt.beam[lo:hi]
			ambS := dt.amb[lo:hi]
			// First lit step: lowest tanElev with tanElev >= horizon
			// (the complement of the per-step test tanElev < horizon).
			cut := sort.SearchFloat64s(tanS, float64(tans[s]))
			for i := 0; i < cut; i++ { // shadowed prefix
				g := diffS[i]*svf + reflS[i]
				gRow[gb.Index(g)]++
				tRow[tb.Index(ambS[i]+k*g)]++
				gSum += g
			}
			for i := cut; i < len(diffS); i++ { // lit suffix
				g := diffS[i]*svf + reflS[i]
				g += beamS[i]
				gRow[gb.Index(g)]++
				tRow[tb.Index(ambS[i]+k*g)]++
				gSum += g
			}
		}
		if withNight {
			// Nights contribute irradiance 0 and the shared ambient
			// distribution; fold them in once per cell in O(bins).
			gRow[zeroBin] += uint32(e.night.count)
			for i, c := range nightTact {
				tRow[i] += c
			}
		}
		gp, err := stats.PercentileOfCounts(gRow, n, gLo, gHi, cs.Pct)
		if err != nil {
			continue
		}
		tp, err := stats.PercentileOfCounts(tRow, n, tLo, tHi, cs.Pct)
		if err != nil {
			continue
		}
		cs.GPct[idx] = gp
		cs.TactPct[idx] = tp
		cs.GMean[idx] = gSum / float64(cs.Samples)
	}
}
