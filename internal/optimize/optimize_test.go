package optimize

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/panel"
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

// problemFixture is a w x h hotspot roof for four 8x4 modules in two
// strings under the standard objective.
func problemFixture(w, h int) Problem {
	return Problem{
		Suit: hotspotSuit(w, h),
		Mask: fullMask(w, h),
		Opts: floorplan.Options{
			Shape:    floorplan.ModuleShape{W: 8, H: 4},
			Topology: panel.Topology{SeriesPerString: 2, Strings: 2},
		},
		WiringWeight: objective.DefaultWiringWeight,
	}
}

func TestGreedyPlacerMatchesPlan(t *testing.T) {
	p := problemFixture(64, 32)
	got, err := Greedy{}.Place(p)
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

func TestAnnealedNeverWorseThanGreedyUnderObjective(t *testing.T) {
	p := problemFixture(64, 32)
	greedy, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Annealed{Seed: 3, Iterations: 8000}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	vg, err := Value(p, greedy)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := Value(p, refined)
	if err != nil {
		t.Fatal(err)
	}
	if vr < vg-1e-9 {
		t.Errorf("annealed objective %f below greedy %f", vr, vg)
	}
	if !refined.OverlapFree() || !refined.WithinMask(p.Mask) {
		t.Error("annealed placement infeasible")
	}
}

func TestMultiStartNeverWorseThanSingleAnneal(t *testing.T) {
	p := problemFixture(64, 32)
	const iters = 4000
	single, err := Annealed{Seed: 1, Iterations: iters}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	// Restart 0 anneals with the base seed itself, so the multistart
	// subsumes the single walk and its best-of can never be worse.
	multi, err := MultiStart{Seed: 1, Iterations: iters, Restarts: 6}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Value(p, single)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := Value(p, multi)
	if err != nil {
		t.Fatal(err)
	}
	if vm < vs-1e-9 {
		t.Errorf("multistart objective %f below single-anneal %f", vm, vs)
	}
	if !multi.OverlapFree() || !multi.WithinMask(p.Mask) {
		t.Error("multistart placement infeasible")
	}
}

func TestMultiStartDeterministicAcrossWorkerCounts(t *testing.T) {
	p := problemFixture(64, 32)
	const iters = 3000
	var ref *floorplan.Placement
	var refVal float64
	for _, workers := range []int{1, 2, 8} {
		pl, err := MultiStart{Seed: 42, Iterations: iters, Restarts: 7, Workers: workers}.Place(p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Value(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refVal = pl, v
			continue
		}
		if math.Float64bits(v) != math.Float64bits(refVal) {
			t.Errorf("Workers=%d objective %v differs from Workers=1 %v", workers, v, refVal)
		}
		if len(pl.Rects) != len(ref.Rects) {
			t.Fatalf("Workers=%d module count differs", workers)
		}
		for i := range pl.Rects {
			if pl.Rects[i] != ref.Rects[i] {
				t.Errorf("Workers=%d module %d at %v, Workers=1 at %v",
					workers, i, pl.Rects[i], ref.Rects[i])
			}
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
