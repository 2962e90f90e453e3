package fieldcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// makeArtifact is a representative payload: the fingerprint followed
// by n float64 values, large enough that a torn read would corrupt it
// detectably.
func makeArtifact(fp string, n int) blob {
	a := append(blob(fp), '|')
	for i := range n {
		a = binary.LittleEndian.AppendUint64(a, math.Float64bits(float64(i)*1.5))
	}
	return a
}

// TestCacheStressSharedDir is the district-scale cache workload: many
// goroutines across several handles (stand-ins for whole processes)
// hammer one directory with overlapping fingerprints — racing loads,
// stores and re-loads — then every published file is vandalised and
// the swarm runs again. Invariants: every load either misses or
// returns the exact artifact, corruption is always detected (counted,
// never decoded), counters stay consistent on every handle, and the
// directory converges back to all-hits.
func TestCacheStressSharedDir(t *testing.T) {
	dir := t.TempDir()
	const (
		handles      = 3
		workersPer   = 8
		fingerprints = 24
		rounds       = 4
	)
	caches := make([]*Cache, handles)
	for i := range caches {
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
	}
	fp := func(i int) string { return fmt.Sprintf("stress-fp-%03d", i) }

	// swarm runs the full worker crowd once and returns the first
	// observed consistency violation.
	swarm := func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, handles*workersPer)
		for h, c := range caches {
			for w := 0; w < workersPer; w++ {
				wg.Add(1)
				go func(h, w int, c *Cache) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := 0; i < fingerprints; i++ {
							// Offset the walk per worker so the same
							// keys race between goroutines and handles.
							f := fp((i + w + r) % fingerprints)
							want := makeArtifact(f, 64)
							var got blob
							if c.Load("stress", f, &got) {
								if !bytes.Equal(got, want) {
									errCh <- fmt.Errorf("handle %d worker %d: load %s returned wrong artifact", h, w, f)
									return
								}
							} else if err := c.Store("stress", f, want); err != nil {
								errCh <- fmt.Errorf("handle %d worker %d: store %s: %w", h, w, f, err)
								return
							}
						}
					}
				}(h, w, c)
			}
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	}

	// Phase 1: cold directory, racing stores.
	if err := swarm(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: vandalise every artifact (truncations and garbage,
	// alternating), then race the swarm over the wreckage.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vandalised := 0
	for i, e := range ents {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if i%2 == 0 {
			if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Truncate(path, 4); err != nil {
			t.Fatal(err)
		}
		vandalised++
	}
	if vandalised == 0 {
		t.Fatal("phase 1 published no artifacts to vandalise")
	}
	corruptBefore := make([]uint64, handles)
	for h, c := range caches {
		corruptBefore[h] = c.Metrics().Corrupt
	}
	if err := swarm(); err != nil {
		t.Fatal(err)
	}
	totalNewCorrupt := uint64(0)
	for h, c := range caches {
		totalNewCorrupt += c.Metrics().Corrupt - corruptBefore[h]
	}
	if totalNewCorrupt == 0 {
		t.Error("no handle detected any of the vandalised artifacts")
	}

	// Phase 3: quiet directory again — every key must now hit, with
	// intact payloads, on every handle.
	for h, c := range caches {
		for i := 0; i < fingerprints; i++ {
			var got blob
			if !c.Load("stress", fp(i), &got) {
				t.Fatalf("handle %d: post-stress load %s missed", h, fp(i))
			}
			if !bytes.Equal(got, makeArtifact(fp(i), 64)) {
				t.Fatalf("handle %d: post-stress load %s wrong: %q", h, fp(i), got)
			}
		}
	}

	// Counter consistency per handle: every Load incremented exactly
	// one of hits/misses; corruption never exceeds misses; stores only
	// ever follow failed loads.
	const loadsPerHandle = 2*rounds*fingerprints*workersPer + fingerprints
	for h, c := range caches {
		m := c.Metrics()
		if got := m.Hits + m.Misses; got != loadsPerHandle {
			t.Errorf("handle %d: hits %d + misses %d = %d, want %d loads",
				h, m.Hits, m.Misses, got, loadsPerHandle)
		}
		if m.Corrupt > m.Misses {
			t.Errorf("handle %d: corrupt %d exceeds misses %d", h, m.Corrupt, m.Misses)
		}
		if m.Stores > m.Misses {
			t.Errorf("handle %d: stores %d exceed misses %d (stores only follow failed loads)",
				h, m.Stores, m.Misses)
		}
	}
}

// TestCacheStressDistinctKinds verifies kind separation under
// concurrency: the same fingerprint under different kinds must never
// alias.
func TestCacheStressDistinctKinds(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"horizon", "stats", "aux"}
	var wg sync.WaitGroup
	for _, kind := range kinds {
		wg.Add(1)
		go func(kind string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fp := fmt.Sprintf("shared-%d", i%5)
				want := makeArtifact(kind+"/"+fp, 1)
				if err := c.Store(kind, fp, want); err != nil {
					t.Error(err)
					return
				}
				var got blob
				if c.Load(kind, fp, &got) {
					if !bytes.HasPrefix(got, []byte(kind+"/")) {
						t.Errorf("kind %s read artifact %q", kind, got)
						return
					}
				}
			}
		}(kind)
	}
	wg.Wait()
}
