package pvfloor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
	"repro/internal/wiring"
)

// TestFieldParallelEquivalenceOnRoofs builds the solar field of two
// paper roofs twice — once on the serial reference path (Workers=1,
// no cache) and once on the parallel engine — and requires the per-cell
// statistics to be bit-identical: same NaN mask, same percentiles,
// same means, same sample counts.
func TestFieldParallelEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four solar fields")
	}
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Residential", Residential},
		{"Roof2", Roof2},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			grid := scenario.FastGrid()
			serial, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			csSerial, err := serial.StatsPercentile(75)
			if err != nil {
				t.Fatal(err)
			}
			csParallel, err := parallel.StatsPercentile(75)
			if err != nil {
				t.Fatal(err)
			}
			if csSerial.Samples == 0 {
				t.Fatal("no samples accumulated")
			}
			if csSerial.Samples != csParallel.Samples {
				t.Fatalf("samples: serial %d vs parallel %d", csSerial.Samples, csParallel.Samples)
			}
			if csSerial.W != csParallel.W || csSerial.H != csParallel.H {
				t.Fatalf("dims differ: %dx%d vs %dx%d",
					csSerial.W, csSerial.H, csParallel.W, csParallel.H)
			}
			diff := 0
			for i := range csSerial.GPct {
				if math.Float64bits(csSerial.GPct[i]) != math.Float64bits(csParallel.GPct[i]) ||
					math.Float64bits(csSerial.GMean[i]) != math.Float64bits(csParallel.GMean[i]) ||
					math.Float64bits(csSerial.TactPct[i]) != math.Float64bits(csParallel.TactPct[i]) {
					diff++
				}
			}
			if diff != 0 {
				t.Errorf("%d of %d cells differ between serial and parallel stats",
					diff, len(csSerial.GPct))
			}
		})
	}
}

// TestSectorKernelEquivalenceOnRoofs pins the sector-sweep statistics
// kernel on the three paper roofs: for percentiles {50, 75, 90} and
// Workers ∈ {1, 2, 8} the pass must be bit-identical across worker
// counts (per-cell accumulation shares nothing). The comparison
// against the retired scalar reference lives next to it, in
// internal/solar/field (TestSectorKernelMatchesScalarOnRoofs).
func TestSectorKernelEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine solar fields")
	}
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.FastGrid()
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			evs := map[int]*field.Evaluator{}
			for _, workers := range []int{1, 2, 8} {
				ev, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				evs[workers] = ev
			}
			for _, pct := range []float64{50, 75, 90} {
				ref, err := evs[1].StatsPercentile(pct)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Samples == 0 {
					t.Fatal("no samples accumulated")
				}
				for _, workers := range []int{2, 8} {
					got, err := evs[workers].StatsPercentile(pct)
					if err != nil {
						t.Fatal(err)
					}
					if got.Samples != ref.Samples || got.W != ref.W || got.H != ref.H {
						t.Fatalf("pct %g workers %d: frame mismatch", pct, workers)
					}
					for i := range ref.GPct {
						if math.Float64bits(got.GPct[i]) != math.Float64bits(ref.GPct[i]) ||
							math.Float64bits(got.GMean[i]) != math.Float64bits(ref.GMean[i]) ||
							math.Float64bits(got.TactPct[i]) != math.Float64bits(ref.TactPct[i]) {
							t.Fatalf("pct %g: workers %d differs from serial at cell %d", pct, workers, i)
						}
					}
				}
			}
		})
	}
}

// TestRunWorkersKnobEquivalence: a full pipeline run must give the
// same placements and energies for any Workers setting.
func TestRunWorkersKnobEquivalence(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(Config{Scenario: sc, Modules: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(Config{Scenario: sc, Modules: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.ProposedEval.NetMWh() != parallel.ProposedEval.NetMWh() {
		t.Errorf("proposed energy differs: %v vs %v",
			serial.ProposedEval.NetMWh(), parallel.ProposedEval.NetMWh())
	}
	if serial.TraditionalEval.NetMWh() != parallel.TraditionalEval.NetMWh() {
		t.Errorf("baseline energy differs: %v vs %v",
			serial.TraditionalEval.NetMWh(), parallel.TraditionalEval.NetMWh())
	}
	if len(serial.Proposed.Rects) != len(parallel.Proposed.Rects) {
		t.Fatalf("placement sizes differ")
	}
	for i := range serial.Proposed.Rects {
		if serial.Proposed.Rects[i] != parallel.Proposed.Rects[i] {
			t.Errorf("module %d placed differently: %v vs %v",
				i, serial.Proposed.Rects[i], parallel.Proposed.Rects[i])
		}
	}
	// Both runs share one calendar/site/turbidity: the astronomy must
	// have been memoized, not recomputed per run.
	if field.AstroCacheLen() == 0 {
		t.Error("astro cache empty after two runs over the same calendar")
	}
}

// TestRunWorkersEquivalenceOnTableIRoofs: on the paper's Table I
// roofs, the whole per-roof run — horizon march, field statistics,
// placement and evaluation — gives bit-identical placements, energies
// and statistics digests for Workers 1, 2 and 8, and marches exactly
// one horizon map per run.
func TestRunWorkersEquivalenceOnTableIRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine paper-roof pipelines")
	}
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Roof1", Roof1},
		{"Roof2", Roof2},
		{"Roof3", Roof3},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			var ref *Result
			for _, workers := range []int{1, 2, 8} {
				before := horizon.BuildCount()
				res, err := Run(Config{Scenario: sc, Modules: 16, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if d := horizon.BuildCount() - before; d != 1 {
					t.Errorf("workers %d: %d horizon marches, want 1", workers, d)
				}
				if ref == nil {
					ref = res
					continue
				}
				if got, want := GPctDigest(res.Stats), GPctDigest(ref.Stats); got != want {
					t.Errorf("workers %d: GPct digest %s, serial %s", workers, got, want)
				}
				for _, e := range []struct {
					name      string
					got, want floorplan.Evaluation
				}{
					{"proposed", res.ProposedEval, ref.ProposedEval},
					{"traditional", res.TraditionalEval, ref.TraditionalEval},
				} {
					if math.Float64bits(e.got.NetMWh()) != math.Float64bits(e.want.NetMWh()) {
						t.Errorf("workers %d: %s energy %v, serial %v", workers, e.name, e.got.NetMWh(), e.want.NetMWh())
					}
				}
				for _, p := range []struct {
					name      string
					got, want *floorplan.Placement
				}{
					{"proposed", res.Proposed, ref.Proposed},
					{"traditional", res.Traditional, ref.Traditional},
				} {
					if len(p.got.Rects) != len(p.want.Rects) {
						t.Fatalf("workers %d: %s placement has %d modules, serial %d",
							workers, p.name, len(p.got.Rects), len(p.want.Rects))
					}
					for i := range p.want.Rects {
						if p.got.Rects[i] != p.want.Rects[i] {
							t.Errorf("workers %d: %s module %d at %v, serial at %v",
								workers, p.name, i, p.got.Rects[i], p.want.Rects[i])
						}
					}
				}
			}
		})
	}
}

// TestObjectiveTraceEquivalenceOnRoofs drives the optimizer layer's
// incremental objective through a long recorded random-move trace on
// two paper roofs and requires, after every applied move, that the
// incrementally maintained value is bit-identical to the from-scratch
// re-evaluation (full footprint re-sum + full wiring estimator). This
// is the contract that lets the annealing strategies trust millions
// of O(1) delta evaluations.
func TestObjectiveTraceEquivalenceOnRoofs(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Roof1", Roof1},
		{"Roof2", Roof2},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := ev.CachedStats()
			if err != nil {
				t.Fatal(err)
			}
			suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
			if err != nil {
				t.Fatal(err)
			}
			topo, err := scenario.Topology(32)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := floorplan.Plan(suit, sc.Suitable, floorplan.Options{Shape: sc.Shape, Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			obj, err := objective.New(suit, sc.Suitable, objective.Params{
				Shape:        sc.Shape,
				Topology:     topo,
				WiringWeight: objective.DefaultWiringWeight,
				Spec:         wiring.AWG10(scenario.CellSizeM),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Bind(pl.Rects); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2026))
			aw, ah := obj.AnchorDims()
			const wantMoves = 1200
			applied := 0
			for proposals := 0; applied < wantMoves; proposals++ {
				if proposals > 500*wantMoves {
					t.Fatalf("only %d of %d moves applied after %d proposals", applied, wantMoves, proposals)
				}
				k := rng.Intn(len(pl.Rects))
				anchor := geom.Cell{X: rng.Intn(aw), Y: rng.Intn(ah)}
				if _, ok := obj.DeltaMove(k, anchor); !ok {
					continue
				}
				if err := obj.ApplyMove(k, anchor); err != nil {
					t.Fatal(err)
				}
				applied++
				want, err := obj.FromScratch(obj.Rects())
				if err != nil {
					t.Fatal(err)
				}
				if got := obj.Value(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("move %d: incremental %v (bits %x) != from-scratch %v (bits %x)",
						applied, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
}

// TestMultiStartWorkerEquivalenceThroughConfig runs the public
// multistart strategy end to end with Workers 1, 2 and 8 — the one
// knob that bounds both the solar-field engine and the restart pool —
// and requires identical proposed placements and energies.
func TestMultiStartWorkerEquivalenceThroughConfig(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(Config{
			Scenario: sc,
			Modules:  8,
			Optimizer: OptimizerConfig{
				Strategy:   StrategyMultiStart,
				Seed:       5,
				Iterations: 2000,
				Restarts:   6,
			},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.ProposedEval.NetMWh() != ref.ProposedEval.NetMWh() {
			t.Errorf("Workers=%d energy %v differs from serial %v",
				workers, res.ProposedEval.NetMWh(), ref.ProposedEval.NetMWh())
		}
		for i := range ref.Proposed.Rects {
			if res.Proposed.Rects[i] != ref.Proposed.Rects[i] {
				t.Errorf("Workers=%d module %d at %v, serial at %v",
					workers, i, res.Proposed.Rects[i], ref.Proposed.Rects[i])
			}
		}
	}
}

// TestSharedHorizonEquivalenceOnRoofs is the tile-sharing contract on
// the paper roofs: a horizon map built region-wise over the scene and
// sliced to the roof (the district fast path) must yield per-cell
// statistics bit-identical to the per-roof horizon build, for every
// worker count — same NaN mask, same percentiles, same means.
func TestSharedHorizonEquivalenceOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several solar fields")
	}
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.FastGrid()
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			plain, err := sc.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := plain.StatsPercentile(75)
			if err != nil {
				t.Fatal(err)
			}
			tile, err := horizon.BuildRegions(sc.Scene.Raster, []geom.Rect{sc.Scene.RoofRect},
				scenario.FastHorizonOptions(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				shared := *sc
				shared.SharedHorizon = tile
				before := horizon.BuildCount()
				ev, err := shared.FieldWith(scenario.FieldConfig{Grid: grid, Fast: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if d := horizon.BuildCount() - before; d != 0 {
					t.Fatalf("workers %d: shared-horizon evaluator ray-marched %d maps, want 0", workers, d)
				}
				cs, err := ev.StatsPercentile(75)
				if err != nil {
					t.Fatal(err)
				}
				if cs.Samples != ref.Samples || cs.W != ref.W || cs.H != ref.H {
					t.Fatalf("workers %d: frame mismatch", workers)
				}
				for i := range ref.GPct {
					if math.Float64bits(cs.GPct[i]) != math.Float64bits(ref.GPct[i]) ||
						math.Float64bits(cs.GMean[i]) != math.Float64bits(ref.GMean[i]) ||
						math.Float64bits(cs.TactPct[i]) != math.Float64bits(ref.TactPct[i]) {
						t.Fatalf("workers %d: shared-horizon stats differ from per-roof build at cell %d",
							workers, i)
					}
				}
			}
		})
	}
}

// TestDistrictSharedHorizonEquivalence is the district-level contract:
// on the neighborhood tile, RunDistrict marches the horizon exactly
// once per tile for Concurrency and FieldWorkers 1, 2 and 8, and every
// planned roof's placements and energies are bit-identical to a
// reference run on a per-roof field (the roof's scenario with the
// shared map removed, so its field ray-marches its own horizon) at the
// same worker count. District results also agree across worker counts.
func TestDistrictSharedHorizonEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three district sweeps plus a per-roof reference for every roof")
	}
	tile := loadNeighborhoodTile(t)
	var ref string
	for _, w := range []int{1, 2, 8} {
		before := horizon.BuildCount()
		res, err := RunDistrict(DistrictConfig{
			Tile:         tile,
			Concurrency:  w,
			FieldWorkers: w,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if builds := horizon.BuildCount() - before; builds != 1 {
			t.Errorf("workers %d: %d horizon builds, want exactly 1 per tile", w, builds)
		}
		if fp := districtFingerprint(res); ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("workers %d: district result differs:\n--- ref ---\n%s--- got ---\n%s", w, ref, fp)
		}

		planned := 0
		for i := range res.Plans {
			rp := &res.Plans[i]
			if !rp.Planned() {
				continue
			}
			planned++
			perRoof := *rp.Scenario
			perRoof.SharedHorizon = nil
			cfg := rp.Run.Config
			cfg.Scenario = &perRoof
			before := horizon.BuildCount()
			ev, err := perRoof.FieldWith(scenario.FieldConfig{
				Grid:    cfg.effectiveGrid(),
				Fast:    cfg.Fidelity != Full,
				Workers: w,
			})
			if err != nil {
				t.Fatalf("workers %d roof %d: per-roof field: %v", w, i, err)
			}
			if builds := horizon.BuildCount() - before; builds != 1 {
				t.Errorf("workers %d roof %d: per-roof reference marched %d horizons, want 1", w, i, builds)
			}
			got, err := RunWithField(cfg, ev)
			if err != nil {
				t.Fatalf("workers %d roof %d: per-roof run: %v", w, i, err)
			}
			if g, d := resultFingerprint(got), resultFingerprint(rp.Run.Result); g != d {
				t.Errorf("workers %d roof %d: per-roof reference differs from the district run:\n district:%s\n per-roof:%s",
					w, i, d, g)
			}
		}
		if planned == 0 {
			t.Fatalf("workers %d: no planned roof; the test has lost its point", w)
		}
	}
}

// resultKey renders a run's planning outcome exactly: both placements
// (every rect, the suitability sum, the warnings) and both
// evaluations. %v prints each float in its shortest round-trip form,
// signed zeros included, so equal keys mean bit-identical results.
func resultKey(res *Result) string {
	var trad floorplan.Placement
	if res.Traditional != nil {
		trad = *res.Traditional
	}
	return fmt.Sprintf("proposed %+v\n%+v\ntraditional %+v\n%+v",
		*res.Proposed, res.ProposedEval, trad, res.TraditionalEval)
}

// TestRunWithFieldPlanningBranchEquivalence holds the concurrent
// planning branch to the serial reference: RunWithField with Workers 1
// (baseline planned after the proposed placement, on the calling
// goroutine) and Workers 4 (baseline on its own goroutine) give
// byte-identical placements, evaluations and warnings on the Table I
// roofs, and with SkipBaseline.
func TestRunWithFieldPlanningBranchEquivalence(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"Roof1", Roof1},
		{"Roof2", Roof2},
		{"Roof3", Roof3},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sc, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := sc.FieldWith(Config{Scenario: sc}.fieldConfig(0))
			if err != nil {
				t.Fatal(err)
			}
			cfgs := []Config{
				{Scenario: sc, Modules: 16},
				{Scenario: sc, Modules: 32},
			}
			if mk.name == "Roof2" {
				cfgs = append(cfgs, Config{Scenario: sc, Modules: 16, SkipBaseline: true})
			}
			for _, cfg := range cfgs {
				var keys [2]string
				for i, workers := range []int{1, 4} {
					cfg.Workers = workers
					res, err := RunWithField(cfg, ev)
					if err != nil {
						t.Fatalf("N=%d workers %d: %v", cfg.Modules, workers, err)
					}
					if (res.Traditional == nil) != cfg.SkipBaseline {
						t.Fatalf("N=%d workers %d: baseline %v with SkipBaseline %v",
							cfg.Modules, workers, res.Traditional, cfg.SkipBaseline)
					}
					keys[i] = resultKey(res)
				}
				if keys[0] != keys[1] {
					t.Errorf("N=%d SkipBaseline=%v: concurrent result differs from serial\nserial:\n%s\nconcurrent:\n%s",
						cfg.Modules, cfg.SkipBaseline, keys[0], keys[1])
				}
			}
		})
	}
}

// TestRunWithFieldBothBranchesFail asks for more modules than the
// roof holds, so the proposed and the baseline placement both run out
// of space: every worker count reports the proposed placement's
// ErrNoSpace, and the concurrent branch does not outlive the call.
func TestRunWithFieldBothBranchesFail(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sc.FieldWith(Config{Scenario: sc}.fieldConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		res, err := RunWithField(Config{Scenario: sc, Modules: 400, Workers: workers}, ev)
		var noSpace *floorplan.ErrNoSpace
		if res != nil || !errors.As(err, &noSpace) || !strings.Contains(err.Error(), "proposed placement") {
			t.Fatalf("workers %d: got %v, %v; want the proposed placement's ErrNoSpace", workers, res, err)
		}
		// A goroutine that has signalled its completion may take a
		// moment to exit; one still running after that is a leak.
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 100 {
				t.Fatalf("workers %d: %d goroutines after the call, %d before", workers, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
