package field

import (
	"math"
	"sync"
	"testing"

	"repro/internal/solar/clearsky"
	"repro/internal/solar/sunpos"
)

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0, 1000); got < 1 {
		t.Errorf("auto workers = %d", got)
	}
	if got := resolveWorkers(8, 3); got != 3 {
		t.Errorf("workers capped at n: got %d, want 3", got)
	}
	if got := resolveWorkers(1, 1000); got != 1 {
		t.Errorf("serial request = %d workers", got)
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 33} {
			hits := make([]int32, n)
			var mu sync.Mutex
			ranges := 0
			forChunks(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Lock()
				ranges++
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if n > 0 && workers == 1 && ranges != 1 {
				t.Errorf("serial path produced %d chunks", ranges)
			}
		}
	}
}

// TestAstroTableMatchesDirect verifies the memoized astronomy against
// a direct evaluation of the underlying models for every step.
func TestAstroTableMatchesDirect(t *testing.T) {
	ResetAstroCache()
	t.Cleanup(ResetAstroCache)
	grid := testGrid(t)
	esra, err := clearsky.New(turin, clearsky.TurinMonthlyTL)
	if err != nil {
		t.Fatal(err)
	}
	steps := astroTable(turin, clearsky.TurinMonthlyTL, grid, esra, 4)
	if len(steps) != grid.Len() {
		t.Fatalf("astro table has %d steps, want %d", len(steps), grid.Len())
	}
	for i := range steps {
		tm := grid.At(i)
		pos := sunpos.At(tm, turin)
		if steps[i].pos != pos {
			t.Fatalf("step %d: memoized position %+v != direct %+v", i, steps[i].pos, pos)
		}
		want := 0.0
		if pos.Up() {
			want = esra.At(pos, int(tm.Month())).GlobalHorizontal()
		}
		if steps[i].ghiClear != want {
			t.Fatalf("step %d: memoized clear GHI %g != direct %g", i, steps[i].ghiClear, want)
		}
	}
}

func TestAstroCacheReuseAndEviction(t *testing.T) {
	ResetAstroCache()
	t.Cleanup(ResetAstroCache)
	grid := testGrid(t)
	esra, err := clearsky.New(turin, clearsky.TurinMonthlyTL)
	if err != nil {
		t.Fatal(err)
	}
	a := astroTable(turin, clearsky.TurinMonthlyTL, grid, esra, 2)
	b := astroTable(turin, clearsky.TurinMonthlyTL, grid, esra, 2)
	if &a[0] != &b[0] {
		t.Error("same key must return the memoized table, not recompute")
	}
	if AstroCacheLen() != 1 {
		t.Errorf("cache holds %d entries, want 1", AstroCacheLen())
	}
	// A different turbidity climatology is a different key.
	tl2 := clearsky.UniformTL(3)
	esra2, err := clearsky.New(turin, tl2)
	if err != nil {
		t.Fatal(err)
	}
	c := astroTable(turin, tl2, grid, esra2, 2)
	if &c[0] == &a[0] {
		t.Error("different turbidity must not share a table")
	}
	if AstroCacheLen() != 2 {
		t.Errorf("cache holds %d entries, want 2", AstroCacheLen())
	}
	// Filling past the cap evicts oldest entries but never corrupts
	// returned tables.
	for i := 0; i < astroCacheCap+4; i++ {
		tl := clearsky.UniformTL(1.5 + 0.1*float64(i))
		es, err := clearsky.New(turin, tl)
		if err != nil {
			t.Fatal(err)
		}
		astroTable(turin, tl, grid, es, 1)
	}
	if AstroCacheLen() > astroCacheCap {
		t.Errorf("cache grew to %d entries, cap is %d", AstroCacheLen(), astroCacheCap)
	}
	ResetAstroCache()
	if AstroCacheLen() != 0 {
		t.Error("reset must empty the cache")
	}
}

// TestSkyPrecomputeWorkerEquivalence: the per-timestep sky states must
// be bit-identical for every worker count.
func TestSkyPrecomputeWorkerEquivalence(t *testing.T) {
	ResetAstroCache()
	t.Cleanup(ResetAstroCache)
	ref := testEvaluator(t, func(c *Config) { c.Workers = 1 })
	for _, workers := range []int{0, 2, 7} {
		ev := testEvaluator(t, func(c *Config) { c.Workers = workers })
		if len(ev.sky) != len(ref.sky) {
			t.Fatalf("workers=%d: %d sky states, want %d", workers, len(ev.sky), len(ref.sky))
		}
		for i := range ref.sky {
			if ev.sky[i] != ref.sky[i] {
				t.Fatalf("workers=%d: sky state %d differs: %+v vs %+v",
					workers, i, ev.sky[i], ref.sky[i])
			}
		}
	}
}

// sameStats compares two CellStats arrays bit-for-bit (NaN == NaN).
func sameStats(t *testing.T, label string, a, b *CellStats) {
	t.Helper()
	if a.W != b.W || a.H != b.H || a.Samples != b.Samples || a.Pct != b.Pct {
		t.Fatalf("%s: header mismatch: %dx%d/%d/%g vs %dx%d/%d/%g",
			label, a.W, a.H, a.Samples, a.Pct, b.W, b.H, b.Samples, b.Pct)
	}
	for i := range a.GPct {
		if math.Float64bits(a.GPct[i]) != math.Float64bits(b.GPct[i]) ||
			math.Float64bits(a.GMean[i]) != math.Float64bits(b.GMean[i]) ||
			math.Float64bits(a.TactPct[i]) != math.Float64bits(b.TactPct[i]) {
			t.Fatalf("%s: cell %d differs: (%g,%g,%g) vs (%g,%g,%g)", label, i,
				a.GPct[i], a.GMean[i], a.TactPct[i], b.GPct[i], b.GMean[i], b.TactPct[i])
		}
	}
}

// TestStatsParallelMatchesSerial: the parallel statistics pass must be
// bit-identical to the serial reference on the same evaluator.
func TestStatsParallelMatchesSerial(t *testing.T) {
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
				par, err := ev.StatsPercentile(pct)
				if err != nil {
					t.Fatal(err)
				}
				ser, err := ev.statsPercentile(pct, 1)
				if err != nil {
					t.Fatal(err)
				}
				sameStats(t, tc.name, par, ser)
			}
		})
	}
}
