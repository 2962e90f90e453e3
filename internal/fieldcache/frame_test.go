package fieldcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/blobstore"
)

// v1Artifact is what the format-1 cache wrote for (kind, fingerprint):
// a gob envelope around a gob payload, filed under a ".gob" key.
func v1Artifact(t testing.TB, kind, fingerprint string, v any) (key string, raw []byte) {
	t.Helper()
	var payload, frame bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	env := struct {
		Magic       string
		Version     int
		Kind        string
		Fingerprint string
		Payload     []byte
		Sum         [sha256.Size]byte
	}{fileMagic, 1, kind, fingerprint, payload.Bytes(), sha256.Sum256(payload.Bytes())}
	if err := gob.NewEncoder(&frame).Encode(env); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(kind + "\x00" + fingerprint))
	return fmt.Sprintf("%s-%x.gob", kind, sum[:16]), frame.Bytes()
}

// TestStaleV1DirectoryIsCleanMiss: a format-1 artifact left in the
// directory under its old name is never looked up — the load is a
// plain miss, not a corrupt one — and a fresh store beside it hits.
func TestStaleV1DirectoryIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	key, raw := v1Artifact(t, "stats", "fp", []float64{1, 2, 3})
	if err := os.WriteFile(filepath.Join(dir, key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out blob
	if c.Load("stats", "fp", &out) {
		t.Fatal("format-1 artifact served as a hit")
	}
	if m := c.Metrics(); m.Misses != 1 || m.Corrupt != 0 || m.Tiers[0].Corrupt != 0 {
		t.Fatalf("metrics = %+v, want one clean miss", m)
	}
	if err := c.Store("stats", "fp", testPayload()); err != nil {
		t.Fatal(err)
	}
	if !c.Load("stats", "fp", &out) || !bytes.Equal(out, testPayload()) {
		t.Fatal("store beside a format-1 artifact must hit")
	}
	if left, err := os.ReadFile(filepath.Join(dir, key)); err != nil || !bytes.Equal(left, raw) {
		t.Errorf("format-1 artifact was touched: %v", err)
	}
}

// TestStaleV1RemotePeerIsCleanMiss: a peer that only holds format-1
// names answers 404 for the current key, so the remote tier records a
// miss — not an error, not corruption.
func TestStaleV1RemotePeerIsCleanMiss(t *testing.T) {
	key, raw := v1Artifact(t, "tilehorizon", "fp", []float32{0.5})
	var mu sync.Mutex
	var asked []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, r.URL.Path)
		mu.Unlock()
		if r.Method == http.MethodGet && r.URL.Path == "/"+key {
			w.Write(raw)
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	remote, err := blobstore.OpenHTTP(srv.URL, blobstore.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenTiered(Config{Dir: t.TempDir(), Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	var out blob
	if c.Load("tilehorizon", "fp", &out) {
		t.Fatal("format-1 peer artifact served as a hit")
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Corrupt != 0 {
		t.Fatalf("metrics = %+v, want one clean miss", m)
	}
	if rt := m.Tiers[1]; rt.Misses != 1 || rt.Errors != 0 || rt.Corrupt != 0 {
		t.Errorf("remote tier = %+v, want a clean miss", rt)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 1 || asked[0] != "/"+Key("tilehorizon", "fp") {
		t.Errorf("peer was asked for %v, want only the current key", asked)
	}
}

// TestFrameRoundTripAndLayout pins the frame: the header fields sit
// where the package doc says, and verifyEnvelope accepts exactly the
// key the frame names.
func TestFrameRoundTripAndLayout(t *testing.T) {
	payload := []byte("payload bytes")
	raw := appendFrame(nil, "stats", "fp-1", payload)
	if want := headerLen + len("stats") + len("fp-1") + len(payload); len(raw) != want {
		t.Fatalf("frame is %d bytes, want %d", len(raw), want)
	}
	f, err := parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.kind) != "stats" || string(f.fingerprint) != "fp-1" || !bytes.Equal(f.payload, payload) {
		t.Fatalf("parsed %q/%q/%q", f.kind, f.fingerprint, f.payload)
	}
	if err := verifyEnvelope(Key("stats", "fp-1"), raw); err != nil {
		t.Fatal(err)
	}
	if err := verifyEnvelope(Key("stats", "fp-2"), raw); err == nil {
		t.Error("frame accepted under another key")
	}
	for name, bad := range map[string][]byte{
		"version": func() []byte {
			b := bytes.Clone(raw)
			b[len(fileMagic)] = 1
			return b
		}(),
		"magic":        append([]byte("pvfield-cachf"), raw[len(fileMagic):]...),
		"kind length":  func() []byte { b := bytes.Clone(raw); b[len(fileMagic)+2] = 0xff; return b }(),
		"short header": raw[:headerLen-1],
	} {
		if _, err := parseFrame(bad); err == nil {
			t.Errorf("%s: mangled frame parsed", name)
		}
	}
}

// staticBackend serves the same bytes for every key.
type staticBackend []byte

func (s staticBackend) Get(string) ([]byte, error) { return s, nil }
func (staticBackend) Put(string, []byte) error     { return nil }
func (s staticBackend) Stat(string) (int64, error) { return int64(len(s)), nil }

// FuzzArtifactFrame drives the frame parser, the verify hook and Load
// over arbitrary blob bytes. Every input is a miss or a hit; a hit
// only for a frame that names the requested key, carries its checksum
// and whose payload is what Load decoded. Nothing panics, and the
// parser allocates nothing: every field aliases the input.
func FuzzArtifactFrame(f *testing.F) {
	f.Add(appendFrame(nil, "stats", "fp", []byte("payload")))
	f.Add(appendFrame(nil, "stats", "other", nil))
	f.Add(appendFrame(nil, "", "", []byte{0}))
	f.Add([]byte(fileMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if allocs := testing.AllocsPerRun(1, func() { parseFrame(raw) }); allocs != 0 {
			t.Fatalf("parseFrame allocated %v times", allocs)
		}
		if fr, err := parseFrame(raw); err == nil {
			// Verify against the key the frame itself names, so the
			// checksum path is reached for arbitrary kinds.
			if verifyEnvelope(Key(string(fr.kind), string(fr.fingerprint)), raw) == nil &&
				sha256.Sum256(fr.payload) != [sha256.Size]byte(fr.sum) {
				t.Fatal("verify accepted a payload that fails its checksum")
			}
		}
		c, err := OpenTiered(Config{Remote: staticBackend(raw)})
		if err != nil {
			t.Fatal(err)
		}
		var out blob
		hit := c.Load("stats", "fp", &out)
		m := c.Metrics()
		if m.Hits+m.Misses != 1 {
			t.Fatalf("one load counted as %+v", m)
		}
		if !hit {
			return
		}
		want := appendFrame(nil, "stats", "fp", out)
		if !bytes.Equal(raw, want) {
			t.Fatal("hit on a frame other than the canonical one for its payload")
		}
	})
}
