package optimize

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/panel"
	"repro/internal/pvmodel"
	"repro/internal/scenario"
	"repro/internal/wiring"
)

// hotspotSuit is a gentle x-gradient with two hot islands the greedy
// may exploit suboptimally.

func hotspotSuit(w, h int) *floorplan.Suitability {
	s := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 10.0 + 0.1*float64(x)
			if x > w-14 && y > h-9 {
				v = 100
			}
			if x < 12 && y < 8 {
				v = 95
			}
			s.S[y*w+x] = v
		}
	}
	return s
}

func fullMask(w, h int) *geom.Mask {
	m := geom.NewMask(w, h)
	m.Fill(true)
	return m
}

// gradientSuit rises to the right and, more gently, downwards.
func gradientSuit(w, h int) *floorplan.Suitability {
	s := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.S[y*w+x] = float64(x) + 0.1*float64(y)
		}
	}
	return s
}

// sumYield is a stand-in yield: a placement's suitability sum as its
// net energy.
func sumYield(pl *floorplan.Placement) (floorplan.Evaluation, error) {
	return floorplan.Evaluation{GrossMWh: pl.SuitabilitySum}, nil
}

// problemFixture is a w x h hotspot roof for four 8x4 modules in two
// strings under the standard objective, judged by sumYield.
func problemFixture(w, h int) Problem {
	return Problem{
		Suit: hotspotSuit(w, h),
		Mask: fullMask(w, h),
		Opts: floorplan.Options{
			Shape:    floorplan.ModuleShape{W: 8, H: 4},
			Topology: panel.Topology{SeriesPerString: 2, Strings: 2},
		},
		Yield: sumYield,
	}
}

func sameRects(a, b *floorplan.Placement) bool {
	if len(a.Rects) != len(b.Rects) {
		return false
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			return false
		}
	}
	return true
}

func TestGreedyPlacerMatchesPlan(t *testing.T) {
	p := problemFixture(64, 32)
	got, _, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := floorplan.Plan(p.Suit, p.Mask, p.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rects) != len(want.Rects) {
		t.Fatal("module counts differ")
	}
	for i := range got.Rects {
		if got.Rects[i] != want.Rects[i] {
			t.Errorf("module %d: %v vs %v", i, got.Rects[i], want.Rects[i])
		}
	}
}

func TestMultiStartKeepsBestYieldingCandidate(t *testing.T) {
	p := problemFixture(64, 32)
	const iters, restarts, seed = 4000, 6, 1
	got, gotEval, err := MultiStart{Seed: seed, Iterations: iters, Restarts: restarts}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotEval.NetMWh() != got.SuitabilitySum {
		t.Errorf("returned yield %v, the placement's own %v", gotEval.NetMWh(), got.SuitabilitySum)
	}
	// Replay the candidates: the greedy seed, then each restart's walk;
	// the first strictly best yield wins.
	seedPl, obj, err := p.greedySeed()
	if err != nil {
		t.Fatal(err)
	}
	want, wantYield := seedPl, seedPl.SuitabilitySum
	for i := 0; i < restarts; i++ {
		pl, err := Refine(obj.Fork(), seedPl, restartSeed(seed, i), iters)
		if err != nil {
			t.Fatal(err)
		}
		if pl.SuitabilitySum > wantYield {
			want, wantYield = pl, pl.SuitabilitySum
		}
	}
	if !sameRects(got, want) {
		t.Errorf("multistart placed %v, best-yielding candidate is %v", got.Rects, want.Rects)
	}
	if got.SuitabilitySum < seedPl.SuitabilitySum {
		t.Errorf("multistart yield %f below greedy %f", got.SuitabilitySum, seedPl.SuitabilitySum)
	}
	if !got.OverlapFree() || !got.WithinMask(p.Mask) {
		t.Error("multistart placement infeasible")
	}
}

func TestMultiStartFallsBackToGreedySeed(t *testing.T) {
	// A yield that prefers the greedy placement over any move away from
	// it: ties keep the earlier candidate, so the seed must win.
	p := problemFixture(64, 32)
	greedy, _, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Yield = func(pl *floorplan.Placement) (floorplan.Evaluation, error) {
		moved := 0
		for i := range pl.Rects {
			if pl.Rects[i] != greedy.Rects[i] {
				moved++
			}
		}
		return floorplan.Evaluation{WiringLossMWh: float64(moved)}, nil
	}
	got, _, err := MultiStart{Seed: 3, Iterations: 4000, Restarts: 4}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRects(got, greedy) {
		t.Errorf("multistart placed %v, want the greedy seed %v", got.Rects, greedy.Rects)
	}
}

func TestMultiStartYieldRequiredAndErrorsPropagate(t *testing.T) {
	p := problemFixture(64, 32)
	p.Yield = nil
	if _, _, err := (MultiStart{Seed: 1, Iterations: 100}).Place(p); err == nil {
		t.Error("multistart without a Yield must error")
	}
	boom := errors.New("boom")
	p.Yield = func(*floorplan.Placement) (floorplan.Evaluation, error) { return floorplan.Evaluation{}, boom }
	if _, _, err := (MultiStart{Seed: 1, Iterations: 100, Restarts: 2}).Place(p); !errors.Is(err, boom) {
		t.Errorf("yield error not propagated: %v", err)
	}
}

func TestMultiStartDeterministicAcrossWorkerCounts(t *testing.T) {
	p := problemFixture(64, 32)
	const iters = 3000
	var ref *floorplan.Placement
	for _, workers := range []int{1, 2, 8} {
		pl, _, err := MultiStart{Seed: 42, Iterations: iters, Restarts: 7, Workers: workers}.Place(p)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pl
			continue
		}
		if math.Float64bits(pl.SuitabilitySum) != math.Float64bits(ref.SuitabilitySum) {
			t.Errorf("Workers=%d yield %v differs from Workers=1 %v", workers, pl.SuitabilitySum, ref.SuitabilitySum)
		}
		if !sameRects(pl, ref) {
			t.Errorf("Workers=%d placed %v, Workers=1 %v", workers, pl.Rects, ref.Rects)
		}
	}
}

func TestRestartSeedIsPureAndSpread(t *testing.T) {
	if restartSeed(1, 0) != restartSeed(1, 0) {
		t.Fatal("restartSeed is not a pure function")
	}
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for i := 0; i < 64; i++ {
			seen[restartSeed(base, i)] = true
		}
	}
	if len(seen) != 4*64 {
		t.Errorf("restart seeds collide: %d distinct of %d", len(seen), 4*64)
	}
}

// TestMultiStartReturnsTheEvaluationItJudged: on a real field, one
// MultiStart.Place evaluates each of its restarts+1 candidates exactly
// once, and the Evaluation it returns — the one the winner was judged
// by — is bit-equal to a fresh floorplan.Evaluate of that placement.
func TestMultiStartReturnsTheEvaluationItJudged(t *testing.T) {
	sc, err := scenario.Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldFast(scenario.FastGrid())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ev.Stats()
	if err != nil {
		t.Fatal(err)
	}
	suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := scenario.Topology(8)
	if err != nil {
		t.Fatal(err)
	}
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	var calls atomic.Int64
	p := Problem{
		Suit: suit, Mask: sc.Suitable, Spec: spec,
		Opts: floorplan.Options{Shape: sc.Shape, Topology: topo},
		Yield: func(pl *floorplan.Placement) (floorplan.Evaluation, error) {
			calls.Add(1)
			return floorplan.Evaluate(ev, mod, pl, spec)
		},
	}
	const restarts = 5
	pl, got, err := MultiStart{Seed: 1, Iterations: 2000, Restarts: restarts, Workers: 2}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != restarts+1 {
		t.Errorf("one Place evaluated %d times, want restarts+1 = %d", n, restarts+1)
	}
	want, err := floorplan.Evaluate(ev, mod, pl, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"GrossMWh", got.GrossMWh, want.GrossMWh},
		{"PerModuleMWh", got.PerModuleMWh, want.PerModuleMWh},
		{"WiringExtraM", got.WiringExtraM, want.WiringExtraM},
		{"WiringLossMWh", got.WiringLossMWh, want.WiringLossMWh},
		{"WiringCostUSD", got.WiringCostUSD, want.WiringCostUSD},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s = %v, fresh Evaluate %v", f.name, f.got, f.want)
		}
	}
	if want.GrossMWh <= 0 {
		t.Fatal("evaluation produced no energy; the test has lost its point")
	}
}
