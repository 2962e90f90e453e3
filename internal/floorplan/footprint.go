package floorplan

import (
	"math"

	"repro/internal/geom"
)

// FootprintMeans returns the footprint-mean suitability of every
// anchor (x, y) at index y·W + x of a W×H table: the row-major sum of
// the footprint's cells from +0 divided by its area, or NaN when the
// footprint leaves the grid or the mask or covers a NaN cell. It is
// the one score table the planners rank and the objective layer prices
// moves with; every planner has always summed footprints in this
// order, so a mean is bit-identical to summing the footprint on
// demand. suit and mask must have equal dimensions.
//
// A NaN cell turns its footprint's sum into NaN by itself. Eight
// neighbouring anchors are summed side by side: each sum keeps its own
// order, and the eight independent chains of additions overlap in the
// CPU instead of waiting on one another.
func FootprintMeans(suit *Suitability, mask *geom.Mask, shape ModuleShape) []float64 {
	w, h := suit.W, suit.H
	aw := w - shape.W + 1
	area := float64(shape.W * shape.H)
	out := make([]float64, w*h)
	fillNaN(out)
	forEachAnchorRow(mask, shape, func(ay int, inMask []bool) {
		row := out[ay*w : ay*w+aw]
		ax := 0
		for ; ax+8 <= aw; ax += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for y := ay; y < ay+shape.H; y++ {
				cells := suit.S[y*w+ax : y*w+ax+shape.W+7]
				for j := 0; j < shape.W; j++ {
					c := cells[j : j+8]
					s0 += c[0]
					s1 += c[1]
					s2 += c[2]
					s3 += c[3]
					s4 += c[4]
					s5 += c[5]
					s6 += c[6]
					s7 += c[7]
				}
			}
			r := row[ax : ax+8]
			r[0], r[1], r[2], r[3] = s0/area, s1/area, s2/area, s3/area
			r[4], r[5], r[6], r[7] = s4/area, s5/area, s6/area, s7/area
		}
		for ; ax < aw; ax++ {
			var sum float64
			for y := ay; y < ay+shape.H; y++ {
				for _, v := range suit.S[y*w+ax : y*w+ax+shape.W] {
					sum += v
				}
			}
			row[ax] = sum / area
		}
		for ax, ok := range inMask {
			if !ok {
				row[ax] = math.NaN()
			}
		}
	})
	return out
}

// forEachAnchorRow calls fn for every row ay of shape's anchor grid
// with inMask[ax] reporting whether the footprint anchored at (ax, ay)
// lies inside the mask. It keeps, per column, the count of masked
// cells in the footprint's rows and slides a run over the columns, so
// a whole grid costs O(W·H) mask reads.
func forEachAnchorRow(mask *geom.Mask, shape ModuleShape, fn func(ay int, inMask []bool)) {
	w, h := mask.W(), mask.H()
	aw, ah := w-shape.W+1, h-shape.H+1
	if aw <= 0 || ah <= 0 {
		return
	}
	masked := func(x, y int) int {
		if mask.Get(geom.Cell{X: x, Y: y}) {
			return 1
		}
		return 0
	}
	cols := make([]int, w)
	for y := 0; y < shape.H; y++ {
		for x := range cols {
			cols[x] += masked(x, y)
		}
	}
	inMask := make([]bool, aw)
	for ay := 0; ay < ah; ay++ {
		if ay > 0 {
			for x := range cols {
				cols[x] += masked(x, ay+shape.H-1) - masked(x, ay-1)
			}
		}
		run := 0
		for x, n := range cols {
			run++
			if n < shape.H {
				run = 0
			}
			if x >= shape.W-1 {
				inMask[x-shape.W+1] = run >= shape.W
			}
		}
		fn(ay, inMask)
	}
}

func fillNaN(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}
