package dsm

import (
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestContentHashMemoClearedByMutators hashes a raster, mutates it
// through each mutator in turn and requires a fresh digest: a stale
// memo would hand the artifact cache a key for the old surface.
func TestContentHashMemoClearedByMutators(t *testing.T) {
	cell := geom.Cell{X: 2, Y: 1}
	rect := geom.Rect{X0: 1, Y0: 1, X1: 4, Y1: 3}
	mutators := []struct {
		name string
		fn   func(r *Raster)
	}{
		{"Set", func(r *Raster) { r.Set(cell, r.At(cell)+1) }},
		{"SetRow", func(r *Raster) {
			row := make([]float64, r.W())
			for x := range row {
				row[x] = 100 + float64(x)
			}
			r.SetRow(2, row)
		}},
		{"SetOrigin", func(r *Raster) { r.SetOrigin(r.Origin().Add(3, 0)) }},
		{"Raise", func(r *Raster) { r.Raise(rect, 0.5) }},
		{"SetRectTo", func(r *Raster) { r.SetRectTo(rect, 42) }},
		{"MaxAbove", func(r *Raster) { r.MaxAbove(rect, 99) }},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			r := patternRaster(t, 8, 6, 0.2)
			before := r.ContentHash()
			m.fn(r)
			after := r.ContentHash()
			if after == before {
				t.Fatalf("%s left the memoized hash in place", m.name)
			}
			// A raster built to the same content, never hashed before,
			// gives the same digest.
			cp, err := NewRaster(r.W(), r.H(), r.CellSize())
			if err != nil {
				t.Fatal(err)
			}
			cp.SetOrigin(r.Origin())
			for y := 0; y < r.H(); y++ {
				cp.SetRow(y, r.Elevations()[y*r.W():(y+1)*r.W()])
			}
			if cp.ContentHash() != after {
				t.Fatalf("%s: memoized hash differs from an unmemoized raster's", m.name)
			}
		})
	}
}

// TestContentHashCloneMatchesSource holds a clone to its source's
// digest, whether or not the source was hashed before cloning, and
// keeps the two memos independent.
func TestContentHashCloneMatchesSource(t *testing.T) {
	r := patternRaster(t, 9, 7, 0.2)
	unhashed := r.Clone()
	want := r.ContentHash()
	hashed := r.Clone()
	if got := unhashed.ContentHash(); got != want {
		t.Errorf("clone taken before hashing: %s, source %s", got, want)
	}
	if got := hashed.ContentHash(); got != want {
		t.Errorf("clone taken after hashing: %s, source %s", got, want)
	}
	hashed.Raise(hashed.Bounds(), 1)
	if r.ContentHash() != want {
		t.Error("mutating a clone changed its source's hash")
	}
	if hashed.ContentHash() == want {
		t.Error("mutated clone kept its source's hash")
	}
}

// TestContentHashConcurrent hashes one raster from 8 goroutines at
// once (run under -race): every caller gets the one digest.
func TestContentHashConcurrent(t *testing.T) {
	r := patternRaster(t, 64, 48, 0.2)
	want := r.Clone().ContentHash()
	const callers = 8
	got := make([]string, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = r.ContentHash()
		}()
	}
	start.Done()
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("caller %d got %s, want %s", i, h, want)
		}
	}
}
