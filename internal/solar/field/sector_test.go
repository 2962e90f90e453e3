package field

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/solar/clearsky"
)

// TestDayTableShape: the SoA table must hold exactly the day steps,
// grouped by sector with ascending tanElev inside each group, and
// reproduce the per-step values bit-for-bit.
func TestDayTableShape(t *testing.T) {
	ev := testEvaluator(t, nil)
	dt := &ev.day
	if got := int(dt.start[dt.sectors]); got != int(ev.daySteps) {
		t.Fatalf("day table holds %d steps, evaluator counted %d day steps", got, ev.daySteps)
	}
	// Reconstruct the expected multiset per sector from the sky slice.
	perSector := map[int32][]float64{}
	for i := range ev.sky {
		st := &ev.sky[i]
		if st.up {
			perSector[st.sector] = append(perSector[st.sector], st.tanElev)
		}
	}
	for s := 0; s < dt.sectors; s++ {
		lo, hi := int(dt.start[s]), int(dt.start[s+1])
		grp := dt.tan[lo:hi]
		if !sort.Float64sAreSorted(grp) {
			t.Fatalf("sector %d group is not sorted by tanElev", s)
		}
		want := append([]float64(nil), perSector[int32(s)]...)
		sort.Float64s(want)
		if len(want) != len(grp) {
			t.Fatalf("sector %d holds %d steps, want %d", s, len(grp), len(want))
		}
		for i := range grp {
			if grp[i] != want[i] {
				t.Fatalf("sector %d step %d: tanElev %v, want %v", s, i, grp[i], want[i])
			}
		}
	}
}

// sectorVsScalar pins the sector-sweep kernel against the scalar
// reference: the histogram-derived outputs (percentiles, samples, NaN
// mask) must be bit-identical — both paths accumulate identical
// counts — while GMean, summed in the kernel's documented sector
// order instead of calendar order, may differ by rounding only.
func sectorVsScalar(t *testing.T, ev *Evaluator, pct float64) {
	t.Helper()
	kern, err := ev.StatsPercentile(pct)
	if err != nil {
		t.Fatal(err)
	}
	scal, err := ev.statsPercentileScalar(pct)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Samples != scal.Samples || kern.W != scal.W || kern.H != scal.H {
		t.Fatalf("frame mismatch: %d/%dx%d vs %d/%dx%d",
			kern.Samples, kern.W, kern.H, scal.Samples, scal.W, scal.H)
	}
	for i := range kern.GPct {
		if math.Float64bits(kern.GPct[i]) != math.Float64bits(scal.GPct[i]) {
			t.Fatalf("pct %g cell %d: GPct %v != scalar %v", pct, i, kern.GPct[i], scal.GPct[i])
		}
		if math.Float64bits(kern.TactPct[i]) != math.Float64bits(scal.TactPct[i]) {
			t.Fatalf("pct %g cell %d: TactPct %v != scalar %v", pct, i, kern.TactPct[i], scal.TactPct[i])
		}
		if math.IsNaN(kern.GMean[i]) != math.IsNaN(scal.GMean[i]) {
			t.Fatalf("pct %g cell %d: NaN mask differs", pct, i)
		}
		if !math.IsNaN(kern.GMean[i]) {
			rel := math.Abs(kern.GMean[i]-scal.GMean[i]) / math.Max(1, math.Abs(scal.GMean[i]))
			if rel > 1e-12 {
				t.Fatalf("pct %g cell %d: GMean %v vs scalar %v (rel %g)",
					pct, i, kern.GMean[i], scal.GMean[i], rel)
			}
		}
	}
}

func TestSectorKernelMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", nil},
		{"uniform-turbidity", func(c *Config) { c.MonthlyTL = clearsky.UniformTL(5) }},
		{"three-workers", func(c *Config) { c.Workers = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := testEvaluator(t, tc.mutate)
			for _, pct := range []float64{50, 75, 90} {
				sectorVsScalar(t, ev, pct)
			}
		})
	}
}

// TestSectorKernelWorkerBitIdentity: the kernel's per-cell work is
// fully independent, so any chunking of the suitable cells must give
// bit-identical results — including GMean, whose summation order is
// cell-local.
func TestSectorKernelWorkerBitIdentity(t *testing.T) {
	ev := testEvaluator(t, nil)
	for _, pct := range []float64{50, 75, 90} {
		ref, err := ev.statsPercentile(pct, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := ev.statsPercentile(pct, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameStats(t, "worker-identity", got, ref)
		}
	}
}

// TestSectorKernelStreamConsistency cross-checks the kernel against an
// independent oracle: the exact p75 of the cell's replayed trace (the
// nearest-rank order statistic, the sample the histogram percentile
// lands in) must agree with the kernel's histogram percentile to one
// bin width.
func TestSectorKernelStreamConsistency(t *testing.T) {
	ev := testEvaluator(t, nil)
	cs, err := ev.StatsPercentile(75)
	if err != nil {
		t.Fatal(err)
	}
	c := geom.Cell{X: 10, Y: 10}
	trace, err := ev.cellTrace(c, false)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(trace)
	exact := trace[int(math.Ceil(0.75*float64(len(trace))))-1]
	gp, _, _ := cs.At(c)
	if d := math.Abs(exact - gp); d > 2.0+1e-9 { // one g-bin width
		t.Errorf("stats p75 %.3f vs exact trace p75 %.3f (diff %.3f > bin width)", gp, exact, d)
	}
}
