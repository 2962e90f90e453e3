package fieldcache

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blobstore"
)

// TestTieredRemoteWarm pins the fleet topology: a fresh local
// directory layered over a peer's warm blob mount serves the artifact
// from the remote tier on the first load and from the local tier
// (promoted) on the second.
func TestTieredRemoteWarm(t *testing.T) {
	// Peer: a warm cache directory exposed over HTTP.
	peer, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := blob("horizon 1.5 2.5 4")
	if err := peer.Store("horizon", "fp-1", want); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/blobs/{key}", blobstore.Handler(peer.Local()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	remote, err := blobstore.OpenHTTP(srv.URL+"/v1/blobs", blobstore.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenTiered(Config{Dir: t.TempDir(), Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	var got blob
	if !c.Load("horizon", "fp-1", &got) {
		t.Fatal("remote-warm load missed")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 0 || m.Corrupt != 0 {
		t.Fatalf("metrics after remote hit = %+v", m)
	}
	if len(m.Tiers) != 2 || m.Tiers[0].Tier != "local" || m.Tiers[1].Tier != "remote" {
		t.Fatalf("tiers = %+v", m.Tiers)
	}
	if m.Tiers[0].Misses != 1 || m.Tiers[0].Stores != 1 {
		t.Errorf("local tier = %+v, want 1 miss + 1 promotion", m.Tiers[0])
	}
	if m.Tiers[1].Hits != 1 {
		t.Errorf("remote tier = %+v, want 1 hit", m.Tiers[1])
	}
	// Second load is served without touching the peer.
	srv.Close()
	var again blob
	if !c.Load("horizon", "fp-1", &again) {
		t.Fatal("promoted local load missed")
	}
	if m := c.Metrics(); m.Tiers[0].Hits != 1 {
		t.Errorf("local tier after promotion = %+v, want a hit", m.Tiers[0])
	}
}

// TestTieredRemoteDegradation pins never-fail-the-run: 500-answering,
// corrupt-payload-serving and timing-out remote tiers all degrade to
// a miss (recompute) and keep Store working locally.
func TestTieredRemoteDegradation(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"server_errors", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}},
		{"corrupt_payload", func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				w.Write([]byte("not an artifact frame"))
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}},
		{"timeout", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(200 * time.Millisecond)
			w.WriteHeader(http.StatusNoContent)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			remote, err := blobstore.OpenHTTP(srv.URL, blobstore.HTTPOptions{
				Timeout: 50 * time.Millisecond,
				Retries: 1,
				Backoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := OpenTiered(Config{Dir: t.TempDir(), Remote: remote})
			if err != nil {
				t.Fatal(err)
			}
			var out blob
			if c.Load("stats", "fp", &out) {
				t.Fatal("degraded remote produced a hit")
			}
			if m := c.Metrics(); m.Misses != 1 {
				t.Errorf("metrics = %+v, want 1 miss", m)
			}
			// The run continues: store locally, reload locally.
			if err := c.Store("stats", "fp", blob("fresh")); err != nil {
				t.Fatalf("store with degraded remote: %v", err)
			}
			if !c.Load("stats", "fp", &out) || string(out) != "fresh" {
				t.Fatalf("local reload after degraded remote: %+v", out)
			}
		})
	}
}

// TestTieredRemoteCorruptCounted pins the attribution: a vandalised
// remote payload shows up in the remote tier's Corrupt counter and in
// the aggregate, while the local tier stays clean.
func TestTieredRemoteCorruptCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("garbage bytes, not an envelope"))
	}))
	defer srv.Close()
	remote, err := blobstore.OpenHTTP(srv.URL, blobstore.HTTPOptions{Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenTiered(Config{Dir: t.TempDir(), Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	var out blob
	if c.Load("horizon", "fp", &out) {
		t.Fatal("corrupt remote produced a hit")
	}
	m := c.Metrics()
	if m.Corrupt != 1 || m.Misses != 1 {
		t.Fatalf("aggregate = %+v, want corrupt=1 miss=1", m)
	}
	if m.Tiers[1].Corrupt != 1 {
		t.Errorf("remote tier = %+v, want the corruption attributed there", m.Tiers[1])
	}
	if m.Tiers[0].Corrupt != 0 {
		t.Errorf("local tier = %+v, want no corruption", m.Tiers[0])
	}
}

// TestOpenTieredRemoteOnly allows a cache with no local directory.
func TestOpenTieredRemoteOnly(t *testing.T) {
	peer, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Store("stats", "fp", blob("shared")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(blobstore.Handler(peer.Local()))
	defer srv.Close()
	remote, err := blobstore.OpenHTTP(srv.URL, blobstore.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenTiered(Config{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	if c.Local() != nil {
		t.Fatal("remote-only cache reports a local tier")
	}
	var out blob
	if !c.Load("stats", "fp", &out) || string(out) != "shared" {
		t.Fatalf("remote-only load: %+v", out)
	}
	if err := c.Store("stats", "fp2", blob("pushed")); err != nil {
		t.Fatal(err)
	}
	var back blob
	if !peer.Load("stats", "fp2", &back) || string(back) != "pushed" {
		t.Fatalf("peer did not receive the pushed artifact: %+v", back)
	}
}

// TestOpenTieredNoTiers rejects a config with nothing to store into.
func TestOpenTieredNoTiers(t *testing.T) {
	if _, err := OpenTiered(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
