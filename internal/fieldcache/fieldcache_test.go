package fieldcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultfs"
)

// blob is the test artifact: bytes that are their own encoding.
type blob []byte

func (b blob) MarshalBinary() ([]byte, error) { return append([]byte(nil), b...), nil }

func (b *blob) UnmarshalBinary(data []byte) error {
	*b = append((*b)[:0], data...)
	return nil
}

func testPayload() blob {
	return blob("roof\x00\x01\xff 1.5 -2.25 0 12345.6789")
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty directory must be rejected")
	}
}

func TestRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := testPayload()
	var out blob
	if c.Load("stats", "fp-1", &out) {
		t.Fatal("load before store must miss")
	}
	if err := c.Store("stats", "fp-1", in); err != nil {
		t.Fatal(err)
	}
	if !c.Load("stats", "fp-1", &out) {
		t.Fatal("load after store must hit")
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip mangled payload: %+v vs %+v", in, out)
	}
	// A different fingerprint or kind is a different artifact.
	var miss blob
	if c.Load("stats", "fp-2", &miss) {
		t.Error("different fingerprint must miss")
	}
	if c.Load("horizon", "fp-1", &miss) {
		t.Error("different kind must miss")
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Stores != 1 || m.Misses != 3 || m.Corrupt != 0 {
		t.Errorf("metrics = %+v, want 1 hit, 1 store, 3 misses, 0 corrupt", m)
	}
}

// artifactFiles lists the published (non-temporary) cache files.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == fmt.Sprintf(".v%d", fileVersion) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestCorruptFilesAreDetectedNotTrusted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0xFF // inside the payload/checksum tail
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a cache artifact"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store("stats", "fp", testPayload()); err != nil {
				t.Fatal(err)
			}
			files := artifactFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("expected 1 artifact file, found %d", len(files))
			}
			tc.mangle(t, files[0])
			var out blob
			if c.Load("stats", "fp", &out) {
				t.Fatal("corrupt artifact must not load")
			}
			if m := c.Metrics(); m.Corrupt != 1 || m.Misses != 1 {
				t.Errorf("metrics = %+v, want the corrupt load counted", m)
			}
			// Recompute-and-store over the corrupt file recovers.
			if err := c.Store("stats", "fp", testPayload()); err != nil {
				t.Fatal(err)
			}
			if !c.Load("stats", "fp", &out) || !bytes.Equal(out, testPayload()) {
				t.Fatal("store over corrupt file must recover the artifact")
			}
		})
	}
}

func TestFingerprintCollisionGuard(t *testing.T) {
	// Even if two keys mapped to one file (they cannot, short of a
	// SHA-256 collision), the stored fingerprint is verified on load;
	// simulate by renaming an artifact onto another key's path.
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("stats", "fp-a", testPayload()); err != nil {
		t.Fatal(err)
	}
	src := artifactFiles(t, dir)[0]
	dst := filepath.Join(dir, Key("stats", "fp-b"))
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	var out blob
	if c.Load("stats", "fp-b", &out) {
		t.Fatal("artifact with mismatched fingerprint must not load")
	}
}

// TestStoreDurabilityProtocol pins the power-cut-safe write order on
// the production Store path: the temp file must be fsynced before the
// rename, and the parent directory after it. This is the regression
// test for the historical gap where Store renamed without any fsync,
// letting a power cut commit a zero-length entry.
func TestStoreDurabilityProtocol(t *testing.T) {
	inj := faultfs.Wrap(faultfs.OS())
	c, err := OpenFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("stats", "fp", testPayload()); err != nil {
		t.Fatal(err)
	}
	var syncedFile, renamed, syncedDir int = -1, -1, -1
	for i, r := range inj.Log() {
		switch r.Op {
		case faultfs.OpSync:
			syncedFile = i
		case faultfs.OpRename:
			renamed = i
		case faultfs.OpSyncDir:
			syncedDir = i
		}
	}
	if syncedFile == -1 || renamed == -1 || syncedDir == -1 {
		t.Fatalf("store skipped part of the durability protocol: log %v", inj.Log())
	}
	if !(syncedFile < renamed && renamed < syncedDir) {
		t.Fatalf("durability order violated: sync@%d rename@%d syncdir@%d", syncedFile, renamed, syncedDir)
	}
}

// TestStoreFaultsNeverCommit drives injected IO failures through the
// production Store path: a failed write, a torn write and a refused
// fsync must all surface an error, leave no committed artifact, and
// leave the key a clean miss that a later store recovers.
func TestStoreFaultsNeverCommit(t *testing.T) {
	for name, arm := range map[string]func(*faultfs.Injector){
		"write failure": func(i *faultfs.Injector) { i.FailNthWrite(1, 0) },
		"torn write":    func(i *faultfs.Injector) { i.FailNthWrite(1, 7) },
		"fsync failure": func(i *faultfs.Injector) { i.FailNthSync(1) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.Wrap(faultfs.OS())
			c, err := OpenFS(dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			arm(inj)
			if err := c.Store("stats", "fp", testPayload()); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("store err = %v, want ErrInjected", err)
			}
			if files := artifactFiles(t, dir); len(files) != 0 {
				t.Fatalf("failed store committed %d artifact(s)", len(files))
			}
			var out blob
			if c.Load("stats", "fp", &out) {
				t.Fatal("failed store must leave the key a miss")
			}
			if err := c.Store("stats", "fp", testPayload()); err != nil {
				t.Fatal(err)
			}
			if !c.Load("stats", "fp", &out) || !bytes.Equal(out, testPayload()) {
				t.Fatal("store after injected failure must recover the artifact")
			}
		})
	}
}

func TestConcurrentSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	// Two handles on one directory, as two RunBatch callers (or two
	// processes) would hold, storing and loading the same keys
	// concurrently. Run with -race in CI.
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k1", "k2", "k3", "k4"}
	var wg sync.WaitGroup
	for _, c := range []*Cache{a, b} {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					for _, k := range keys {
						var out blob
						if c.Load("stats", k, &out) {
							if !bytes.Equal(out, testPayload()) {
								t.Errorf("key %s: concurrent load observed mangled payload", k)
								return
							}
						} else if err := c.Store("stats", k, testPayload()); err != nil {
							t.Errorf("key %s: store: %v", k, err)
							return
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()
	for _, k := range keys {
		var out blob
		if !a.Load("stats", k, &out) {
			t.Errorf("key %s missing after concurrent writes", k)
		}
	}
}
