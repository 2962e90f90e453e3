package jobs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest opens a store whose only job directory holds an
// arbitrary manifest.json, standing in for a crash-torn or tampered
// manifest. Open must never panic or fail: it either loads the job
// (a running job comes back interrupted) or reports it as failed with
// an unreadable manifest. Either way the job is counted in exactly one
// lifecycle state, and a second Open sees the same state.
func FuzzManifest(f *testing.F) {
	const id = "20260101t000000-0a1b2c3d"
	seedDir := f.TempDir()
	s, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	j, err := s.Create("city", []byte(`{"demo":true}`))
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Transition(Running, ""); err != nil {
		f.Fatal(err)
	}
	if err := j.SetTiles(4); err != nil {
		f.Fatal(err)
	}
	if err := j.RecordTile(TileStatus{Index: 2, State: "done", Attempts: 1}); err != nil {
		f.Fatal(err)
	}
	running, err := os.ReadFile(filepath.Join(seedDir, j.ID(), "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(running) // well formed, but filed under another id
	for _, s := range []string{
		``,
		`null`,
		`{}`,
		`torn garbag`,
		`{"id":"` + id + `","kind":"city","state":"queued","created":"2026-01-01T00:00:00Z"}`,
		`{"id":"` + id + `","kind":"city","state":"running","tiles":4,"tile_statuses":[{"index":1,"state":"done"}]}`,
		`{"id":"` + id + `","state":"done","finished":"2026-01-01T00:10:00Z","history":[{"state":"done"}]}`,
		`{"id":"` + id + `","state":"bogus"}`,
		`{"id":"` + id + `"}`,
		`{"id":"` + id + `","state":"running","request":{"a":[1,2,3]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first := openOne(t, dir, id)
		if first.State == Failed && first.Error == "unreadable manifest" {
			if first.ID != id {
				t.Fatalf("failed job reported under id %q", first.ID)
			}
		} else if first.ID != id || first.State == Running {
			t.Fatalf("loaded job %q in state %q", first.ID, first.State)
		}
		if again := openOne(t, dir, id); again.State != first.State {
			t.Fatalf("second open saw state %q, first %q", again.State, first.State)
		}
	})
}

// openOne opens the store at dir, which must hold exactly the job id,
// checks that the job is counted once, and returns its manifest.
func openOne(t *testing.T, dir, id string) Manifest {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j, ok := s.Get(id)
	if !ok {
		t.Fatal("job dropped")
	}
	c := s.Counts()
	if n := c.Queued + c.Running + c.Done + c.Failed + c.Cancelled + c.Interrupted; n != 1 {
		t.Fatalf("job counted %d times: %+v (state %q)", n, c, j.Manifest().State)
	}
	return j.Manifest()
}
