package pvfloor

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/solar/field"
	"repro/internal/solar/horizon"
)

// TestRunBatchSharesFieldsAcrossVariants: runs over the same scenario
// and calendar must share one constructed solar field (the RunWithField
// amortisation), and every run must succeed with consistent physics.
func TestRunBatchSharesFieldsAcrossVariants(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Scenario: sc, Modules: 8},
		{Scenario: sc, Modules: 16},
		{Scenario: sc, Modules: 8, SkipBaseline: true, Label: "no-baseline"},
	}
	runs, err := RunBatch(cfgs, BatchOptions{Concurrency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(cfgs) {
		t.Fatalf("%d runs for %d configs", len(runs), len(cfgs))
	}
	built := 0
	for i, br := range runs {
		if br.Err != nil {
			t.Fatalf("run %d (%s): %v", i, br.Name, br.Err)
		}
		if br.Index != i {
			t.Errorf("run %d reported index %d", i, br.Index)
		}
		if br.Result == nil || br.Result.Evaluator == nil {
			t.Fatalf("run %d: missing result", i)
		}
		if br.FieldBuilt {
			built++
		}
	}
	if built != 1 {
		t.Errorf("%d field builds for one scenario/calendar group, want 1", built)
	}
	// All three runs must hold the very same evaluator and share its
	// memoized statistics pass (one accumulation per field).
	ev := runs[0].Result.Evaluator
	for i, br := range runs[1:] {
		if br.Result.Evaluator != ev {
			t.Errorf("run %d did not reuse the group's field", i+1)
		}
		if br.Result.Stats != runs[0].Result.Stats {
			t.Errorf("run %d did not share the memoized statistics", i+1)
		}
	}
	// Names: derived and explicit labels.
	if runs[0].Name != "Residential/N=8" {
		t.Errorf("derived name = %q", runs[0].Name)
	}
	if runs[2].Name != "no-baseline" {
		t.Errorf("labelled name = %q", runs[2].Name)
	}
	// Physics consistency across the shared field.
	if !(runs[1].Result.ProposedEval.GrossMWh > runs[0].Result.ProposedEval.GrossMWh) {
		t.Error("16 modules must out-produce 8 on the shared field")
	}
	if runs[2].Result.Traditional != nil {
		t.Error("SkipBaseline variant must have no baseline")
	}
}

// TestRunBatchIsolatesFailures: a failing run must not abort the
// batch, and its error must be recorded in place.
func TestRunBatchIsolatesFailures(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Scenario: nil, Modules: 8}, // nil scenario
		{Scenario: sc, Modules: 7},  // not a multiple of 8
		{Scenario: sc, Modules: 8},  // fine
	}
	runs, err := RunBatch(cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Err == nil {
		t.Error("nil scenario must fail its run")
	}
	if runs[1].Err == nil {
		t.Error("bad module count must fail its run")
	}
	if runs[2].Err != nil {
		t.Errorf("healthy run failed: %v", runs[2].Err)
	}
	if runs[2].Result == nil {
		t.Error("healthy run missing result")
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if _, err := RunBatch(nil, BatchOptions{}); err == nil {
		t.Error("empty batch must error")
	}
}

// TestBatchTableI: the summary must contain one row per successful
// run and skip failures.
func TestBatchTableI(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := RunBatch([]Config{
		{Scenario: sc, Modules: 8},
		{Scenario: nil},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table := BatchTableI(runs)
	if !strings.Contains(table, "Residential") {
		t.Errorf("summary missing roof row:\n%s", table)
	}
	if lines := strings.Count(table, "\n"); lines != 4 { // header(2) + rule + 1 row
		t.Errorf("summary has %d lines, want 4:\n%s", lines, table)
	}
}

// TestRunBatchWarmCacheSkipsRecomputation: with a persistent cache
// handle, a second batch over the same unchanged roof must restore
// horizon maps and statistics from disk — no ray marching, no kernel
// pass — and produce bit-identical results.
func TestRunBatchWarmCacheSkipsRecomputation(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t, t.TempDir())
	cfgs := []Config{
		{Scenario: sc, Modules: 8, Cache: cache},
		{Scenario: sc, Modules: 16, Cache: cache},
	}
	cold, err := RunBatch(cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range cold {
		if br.Err != nil {
			t.Fatalf("cold %s: %v", br.Name, br.Err)
		}
	}

	hb, sp := horizon.BuildCount(), field.StatsPassCount()
	warm, err := RunBatch(cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range warm {
		if br.Err != nil {
			t.Fatalf("warm %s: %v", br.Name, br.Err)
		}
	}
	if got := horizon.BuildCount(); got != hb {
		t.Errorf("warm batch ray-marched %d horizon maps, want 0", got-hb)
	}
	if got := field.StatsPassCount(); got != sp {
		t.Errorf("warm batch executed %d statistics passes, want 0", got-sp)
	}
	if !warm[0].Result.Evaluator.HorizonFromCache() {
		t.Error("warm batch field must report a cached horizon")
	}
	for i := range cfgs {
		c, w := cold[i].Result, warm[i].Result
		if c.ProposedEval.NetMWh() != w.ProposedEval.NetMWh() ||
			c.TraditionalEval.NetMWh() != w.TraditionalEval.NetMWh() {
			t.Errorf("run %d: warm energies differ from cold", i)
		}
		for j := range c.Stats.GPct {
			if math.Float64bits(c.Stats.GPct[j]) != math.Float64bits(w.Stats.GPct[j]) ||
				math.Float64bits(c.Stats.GMean[j]) != math.Float64bits(w.Stats.GMean[j]) ||
				math.Float64bits(c.Stats.TactPct[j]) != math.Float64bits(w.Stats.TactPct[j]) {
				t.Fatalf("run %d: cached statistics differ from cold at cell %d", i, j)
			}
		}
	}
}

// TestRunBatchConcurrentSharedCacheDir: concurrent batches sharing one
// cache directory, each through its own handle (as separate processes
// would), must be race-clean (run under -race in CI) and all succeed
// with consistent results.
func TestRunBatchConcurrentSharedCacheDir(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const callers = 3
	results := make([][]BatchRun, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		cache := openTestCache(t, dir)
		cfgs := []Config{
			{Scenario: sc, Modules: 8, Cache: cache},
			{Scenario: sc, Modules: 16, Cache: cache},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs, err := RunBatch(cfgs, BatchOptions{Concurrency: 2})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = runs
		}(i)
	}
	wg.Wait()
	for i, runs := range results {
		if runs == nil {
			t.Fatalf("caller %d produced no runs", i)
		}
		for _, br := range runs {
			if br.Err != nil {
				t.Fatalf("caller %d run %s: %v", i, br.Name, br.Err)
			}
		}
		if got, want := runs[0].Result.ProposedEval.NetMWh(), results[0][0].Result.ProposedEval.NetMWh(); got != want {
			t.Errorf("caller %d: proposed %v differs from caller 0's %v", i, got, want)
		}
	}
}

// TestRunBatchCancellation: cancelling the batch context after the
// first completed run must stop the fan-out — with a serial pool, at
// most the run already in flight finishes and every later run is
// recorded (and reported through Progress) with the context error.
func TestRunBatchCancellation(t *testing.T) {
	sc, err := Residential()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = Config{Scenario: sc, Modules: 8, SkipBaseline: true}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var events []BatchRun
	runs, err := RunBatch(cfgs, BatchOptions{
		Concurrency: 1,
		Context:     ctx,
		Progress: func(br BatchRun) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, br)
			if len(events) == 1 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(cfgs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(cfgs))
	}
	if len(events) != len(cfgs) {
		t.Fatalf("Progress reported %d runs, want every one of %d", len(events), len(cfgs))
	}
	if runs[0].Err != nil || runs[0].Result == nil {
		t.Fatalf("first run should have completed: %+v", runs[0].Err)
	}
	var completed, cancelled int
	for i, br := range runs {
		if br.Index != i {
			t.Errorf("runs[%d].Index = %d", i, br.Index)
		}
		switch {
		case br.Err == nil && br.Result != nil:
			completed++
		case br.Err != nil && errors.Is(br.Err, context.Canceled):
			if br.Result != nil {
				t.Errorf("cancelled run %d carries a result", i)
			}
			cancelled++
		default:
			t.Errorf("run %d in unexpected state: err=%v", i, br.Err)
		}
	}
	// The serial pool had exactly one run in flight when the
	// cancellation landed, so at most two complete in total.
	if completed > 2 {
		t.Errorf("%d runs completed after cancellation, want <= 2", completed)
	}
	if cancelled < len(cfgs)-2 {
		t.Errorf("only %d runs were cancelled, want >= %d", cancelled, len(cfgs)-2)
	}
}
