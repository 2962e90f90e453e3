// Package fieldcache is the persistent artifact cache of the solar
// pipeline: content-addressed gob-encoded artifacts (horizon maps,
// per-cell statistics) keyed by composite fingerprints of everything
// they depend on. Repeated scenario sweeps over the same roofs —
// across processes, not just within one — skip both horizon
// construction and the statistics pass.
//
// # Keying and invalidation
//
// The cache itself is value-agnostic: callers present a kind (a short
// artifact-class tag) and a fingerprint string, and the cache maps the
// pair to a blob key named by the SHA-256 of both. The field engine
// composes fingerprints from the DSM raster content hash, the roof
// region, the horizon options, the calendar fingerprint, the site,
// turbidity, weather realisation and statistics configuration — so any
// input change produces a different key and the stale artifact is
// simply never read again (no explicit invalidation pass; run a
// directory cleanup out of band if space matters).
//
// # Storage tiers
//
// Storage is delegated to internal/blobstore. Open and OpenFS build
// the classic single-tier cache over a local directory; OpenTiered
// additionally layers that directory over a remote blob tier (a peer
// pvserve's /v1/blobs mount) as a read-through/write-through
// hierarchy: local misses fall through to the fleet's warm artifacts
// and promote back into the directory, stores publish to both. A
// slow, dead or corrupt remote degrades to recompute, never to a
// failed run. Metrics carries both the classic aggregate counters and
// a per-tier breakdown.
//
// # Integrity
//
// Blobs carry a magic header, a format version, the full fingerprint
// and a SHA-256 checksum of the payload. Every tier's payload is
// verified before use — corrupt, truncated or colliding blobs are
// treated as misses (counted per tier and in Metrics.Corrupt) and the
// lookup falls through to the next tier or to recompute, never
// trusted. This matters doubly for the remote tier: bytes from the
// network get exactly the same scrutiny as bytes from disk.
//
// # Concurrency and durability
//
// Local stores write to a unique temporary file, fsync it, atomically
// rename it into place and fsync the parent directory, so concurrent
// writers — goroutines or whole processes sharing one cache directory
// — race benignly (readers observe either nothing or a complete file,
// and identical keys hold identical content by construction) and a
// power cut cannot leave a committed zero-length or torn entry: the
// data is on stable storage before the rename publishes it. All IO
// goes through a faultfs.FS seam so the fault-injection tests drive
// the exact production write path.
package fieldcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"repro/internal/blobstore"
	"repro/internal/faultfs"
)

const (
	fileMagic   = "pvfield-cache"
	fileVersion = 1
)

// envelope is the stored frame around a payload.
type envelope struct {
	Magic       string
	Version     int
	Kind        string
	Fingerprint string
	Payload     []byte
	Sum         [sha256.Size]byte
}

// Cache is a handle on an artifact store. The zero value is not
// usable; construct with Open, OpenFS or OpenTiered. All methods are
// safe for concurrent use.
type Cache struct {
	local *blobstore.Dir
	store *blobstore.Tiered

	hits    atomic.Uint64
	misses  atomic.Uint64
	stores  atomic.Uint64
	corrupt atomic.Uint64
}

// Metrics is a snapshot of a cache handle's counters. Counters are
// per-handle, not per-directory: two handles on one directory count
// separately.
type Metrics struct {
	// Hits counts loads that returned a verified artifact.
	Hits uint64 `json:"hits"`
	// Misses counts loads that found no usable artifact in any tier
	// (absent or corrupt; corrupt ones also increment Corrupt).
	Misses uint64 `json:"misses"`
	// Stores counts successful explicit writes (read-through
	// promotions between tiers are visible only in Tiers).
	Stores uint64 `json:"stores"`
	// Corrupt counts artifacts that existed but failed verification,
	// summed across tiers.
	Corrupt uint64 `json:"corrupt"`
	// Tiers breaks the traffic down per storage tier, fastest first.
	Tiers []blobstore.TierMetrics `json:"tiers,omitempty"`
}

// Config selects the storage tiers for OpenTiered. At least one of
// Dir and Remote must be set.
type Config struct {
	// Dir is the local cache directory (the fast tier). Empty means
	// no local tier — every load consults the remote directly.
	Dir string
	// FS overrides the filesystem seam under Dir (default the real
	// filesystem; tests inject faults here).
	FS faultfs.FS
	// Remote, when non-nil, is the slow tier consulted after the
	// local directory — typically blobstore.OpenHTTP on a peer's
	// /v1/blobs mount. All its failures degrade to recompute.
	Remote blobstore.Backend
	// RemoteName labels the remote tier in metrics (default "remote").
	RemoteName string
}

// Open creates (if needed) and opens a single-tier cache directory.
func Open(dir string) (*Cache, error) {
	return OpenFS(dir, faultfs.OS())
}

// OpenFS opens a cache directory over an explicit filesystem seam —
// the entry point the fault-injection tests use to exercise the
// production write path under failing or torn IO.
func OpenFS(dir string, fsys faultfs.FS) (*Cache, error) {
	return OpenTiered(Config{Dir: dir, FS: fsys})
}

// OpenTiered opens a cache over the configured storage tiers: the
// local directory (if any) layered read-through/write-through over
// the remote backend (if any).
func OpenTiered(cfg Config) (*Cache, error) {
	if cfg.Dir == "" && cfg.Remote == nil {
		return nil, fmt.Errorf("fieldcache: empty cache directory")
	}
	c := &Cache{}
	var tiers []blobstore.Tier
	if cfg.Dir != "" {
		local, err := blobstore.OpenDir(cfg.Dir, cfg.FS)
		if err != nil {
			return nil, fmt.Errorf("fieldcache: %w", err)
		}
		c.local = local
		tiers = append(tiers, blobstore.Tier{Name: "local", Backend: local})
	}
	if cfg.Remote != nil {
		name := cfg.RemoteName
		if name == "" {
			name = "remote"
		}
		tiers = append(tiers, blobstore.Tier{Name: name, Backend: cfg.Remote})
	}
	store, err := blobstore.NewTiered(verifyEnvelope, tiers...)
	if err != nil {
		return nil, fmt.Errorf("fieldcache: %w", err)
	}
	c.store = store
	return c, nil
}

// Local returns the local directory tier, or nil for a remote-only
// cache. pvserve mounts it at /v1/blobs so peers can use this process
// as their remote tier.
func (c *Cache) Local() *blobstore.Dir { return c.local }

// Metrics returns a snapshot of this handle's counters, including the
// per-tier breakdown.
func (c *Cache) Metrics() Metrics {
	tiers := c.store.Metrics()
	corrupt := c.corrupt.Load()
	for _, t := range tiers {
		corrupt += t.Corrupt
	}
	return Metrics{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Corrupt: corrupt,
		Tiers:   tiers,
	}
}

// Key maps (kind, fingerprint) to the blob key naming the artifact.
// The fingerprint is hashed — it can be arbitrarily long and contain
// any bytes — and the kind is kept readable for debugging.
func Key(kind, fingerprint string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + fingerprint))
	return fmt.Sprintf("%s-%x.gob", kind, sum[:16])
}

// verifyEnvelope is the per-tier integrity gate: it decodes the frame,
// checks magic, version and payload checksum, and confirms the
// envelope's own kind and fingerprint hash back to the requested key
// (so a blob filed under the wrong name can never satisfy a lookup).
// The payload itself is decoded later by Load.
func verifyEnvelope(key string, raw []byte) error {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return fmt.Errorf("fieldcache: undecodable envelope for %s: %w", key, err)
	}
	if env.Magic != fileMagic || env.Version != fileVersion {
		return fmt.Errorf("fieldcache: bad magic/version for %s", key)
	}
	if Key(env.Kind, env.Fingerprint) != key {
		return fmt.Errorf("fieldcache: envelope for %s names key %s", key, Key(env.Kind, env.Fingerprint))
	}
	if sha256.Sum256(env.Payload) != env.Sum {
		return fmt.Errorf("fieldcache: checksum mismatch for %s", key)
	}
	return nil
}

// Load looks up the artifact for (kind, fingerprint) and gob-decodes
// it into out (which must be a non-nil pointer). It returns true only
// when a fully verified artifact was decoded; every failure mode —
// absent blob, bad magic or version, fingerprint mismatch, checksum
// mismatch, decode error, dead remote tier — is a miss, and the
// caller recomputes.
func (c *Cache) Load(kind, fingerprint string, out any) bool {
	raw, err := c.store.Get(Key(kind, fingerprint))
	if err != nil {
		c.misses.Add(1)
		return false
	}
	// The tier verify hook has already checked magic, version, key and
	// checksum; re-decode the frame to reach the payload and guard the
	// exact kind/fingerprint pair once more.
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		c.markCorrupt()
		return false
	}
	if env.Kind != kind || env.Fingerprint != fingerprint {
		c.markCorrupt()
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(out); err != nil {
		c.markCorrupt()
		return false
	}
	c.hits.Add(1)
	return true
}

func (c *Cache) markCorrupt() {
	c.corrupt.Add(1)
	c.misses.Add(1)
}

// Store writes the artifact for (kind, fingerprint) through every
// tier. The local write is atomic and durable (temp file + fsync +
// rename + directory fsync, see faultfs.WriteFileAtomic), so
// concurrent stores of the same key and concurrent loads are
// race-free, and a crash mid-store can never publish a truncated
// entry: the entry is either absent or complete. A failed remote
// write never fails the store — only the local tier's error is
// surfaced.
func (c *Cache) Store(kind, fingerprint string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("fieldcache: encoding %s artifact: %w", kind, err)
	}
	env := envelope{
		Magic:       fileMagic,
		Version:     fileVersion,
		Kind:        kind,
		Fingerprint: fingerprint,
		Payload:     payload.Bytes(),
		Sum:         sha256.Sum256(payload.Bytes()),
	}
	var frame bytes.Buffer
	if err := gob.NewEncoder(&frame).Encode(env); err != nil {
		return fmt.Errorf("fieldcache: framing %s artifact: %w", kind, err)
	}
	if err := c.store.Put(Key(kind, fingerprint), frame.Bytes()); err != nil {
		return fmt.Errorf("fieldcache: storing %s artifact: %w", kind, err)
	}
	c.stores.Add(1)
	return nil
}
