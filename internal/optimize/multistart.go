package optimize

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/floorplan"
)

// MultiStart is the parallel multi-start annealer: K independent
// annealing restarts from the greedy seed, each with a
// deterministically derived RNG seed, fanned out on a bounded worker
// pool, best restart wins.
//
// Determinism contract (same as the solar-field engine): restart i's
// seed is a pure function of (Seed, i), every restart writes only its
// own result slot, and best-of selection scans restarts in index
// order with strict improvement — so the returned placement is
// bit-identical for every Workers value, including the serial
// reference path Workers=1.
type MultiStart struct {
	// Seed is the base seed the restart seeds derive from.
	Seed int64
	// Iterations is the per-restart move budget (0 = 20000).
	Iterations int
	// Restarts is K, the number of independent annealing runs
	// (default 8).
	Restarts int
	// Workers bounds the restart pool: 0 = one worker per CPU, 1 =
	// the serial reference path. Results are identical for every
	// value.
	Workers int
}

// Name implements Placer.
func (m MultiStart) Name() string {
	if m.Restarts > 0 {
		return fmt.Sprintf("multistart(%d)", m.Restarts)
	}
	return "multistart"
}

// restartSeed derives restart i's RNG seed from the base seed.
// Restart 0 anneals with the base seed itself, so a multi-start
// search subsumes the corresponding single-walk refinement and its
// best-of result is never worse. Later restarts take a splitmix64
// step — decorrelated walks even for adjacent bases, and a pure
// function of (base, i) so the schedule is identical no matter which
// worker runs the restart.
func restartSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	z := uint64(base) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Place implements Placer: greedy seed once, K annealing restarts
// over one shared score table (objective.Fork per restart), best-of
// selection in restart order.
func (m MultiStart) Place(p Problem) (*floorplan.Placement, error) {
	restarts := m.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	if restarts > 1<<16 {
		return nil, fmt.Errorf("optimize: unreasonable restart count %d", restarts)
	}
	seedPl, obj, err := p.greedySeed()
	if err != nil {
		return nil, err
	}

	type outcome struct {
		pl    *floorplan.Placement
		value float64
		err   error
	}
	results := make([]outcome, restarts)
	run := func(i int) {
		o := obj.Fork()
		pl, err := Refine(o, seedPl, restartSeed(m.Seed, i), m.Iterations)
		if err != nil {
			results[i] = outcome{err: err}
			return
		}
		v, err := o.FromScratch(pl.Rects)
		results[i] = outcome{pl: pl, value: v, err: err}
	}
	forIndices(restarts, m.Workers, run)

	best := -1
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("optimize: restart %d: %w", i, r.err)
		}
		if best < 0 || r.value > results[best].value {
			best = i
		}
	}
	return results[best].pl, nil
}

// forIndices runs fn(i) for i in [0, n) on a bounded worker pool.
// Each index is processed exactly once and fn writes only its own
// slot, so any caller is deterministic for every worker count. With
// workers == 1 the loop runs on the calling goroutine (the serial
// reference path: no goroutines, no synchronisation).
func forIndices(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
