// Package fieldcache is the persistent artifact cache of the solar
// pipeline: content-addressed binary artifacts (horizon maps,
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
// directory cleanup out of band if space matters). The key also names
// the frame format version, so artifacts written in an older format
// are never looked up: they are clean misses, not corrupt entries.
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
// # Frame and integrity
//
// A blob is one fixed binary frame, all integers little-endian:
//
//	magic       13 bytes  "pvfield-cache"
//	version     uint16    frame format version
//	kind len    uint16
//	fp len      uint32
//	sum         32 bytes  SHA-256 of the payload
//	kind        kind len bytes
//	fingerprint fp len bytes
//	payload     the rest: the artifact's MarshalBinary output
//
// Every tier's blob is verified before use: the header is parsed in
// place, the magic and version checked, the kind and fingerprint
// hashed back to the requested key (so a blob filed under the wrong
// name can never satisfy a lookup) and the payload checksummed.
// Corrupt, truncated or colliding blobs are treated as misses (counted
// per tier and in Metrics.Corrupt) and the lookup falls through to the
// next tier or to recompute, never trusted. This matters doubly for
// the remote tier: bytes from the network get exactly the same
// scrutiny as bytes from disk. Load then hands the payload — a
// sub-slice of the blob, never copied — to the artifact's
// UnmarshalBinary, whose own shape errors are misses too.
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
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/blobstore"
	"repro/internal/faultfs"
)

const (
	fileMagic   = "pvfield-cache"
	fileVersion = 2
	// headerLen is the fixed part of the frame, before the kind.
	headerLen = len(fileMagic) + 2 + 2 + 4 + sha256.Size
)

// frame is a parsed blob. Every slice aliases the blob it was parsed
// from.
type frame struct {
	kind, fingerprint []byte
	sum               []byte
	payload           []byte
}

var (
	errNotFrame     = errors.New("not an artifact frame")
	errVersion      = errors.New("unknown frame version")
	errShortStrings = errors.New("frame shorter than its kind and fingerprint")
)

// parseFrame checks the magic and version and splits raw into its
// fields in place; it allocates nothing.
func parseFrame(raw []byte) (frame, error) {
	if len(raw) < headerLen || string(raw[:len(fileMagic)]) != fileMagic {
		return frame{}, errNotFrame
	}
	h := raw[len(fileMagic):]
	if binary.LittleEndian.Uint16(h) != fileVersion {
		return frame{}, errVersion
	}
	kindLen := uint64(binary.LittleEndian.Uint16(h[2:]))
	fpLen := uint64(binary.LittleEndian.Uint32(h[4:]))
	rest := raw[headerLen:]
	if kindLen+fpLen > uint64(len(rest)) {
		return frame{}, errShortStrings
	}
	return frame{
		kind:        rest[:kindLen],
		fingerprint: rest[kindLen : kindLen+fpLen],
		sum:         h[8 : 8+sha256.Size],
		payload:     rest[kindLen+fpLen:],
	}, nil
}

// appendFrame frames payload for (kind, fingerprint).
func appendFrame(dst []byte, kind, fingerprint string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(dst, fileMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, fileVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(kind)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fingerprint)))
	dst = append(dst, sum[:]...)
	dst = append(dst, kind...)
	dst = append(dst, fingerprint...)
	return append(dst, payload...)
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
// any bytes — and the kind is kept readable for debugging. The suffix
// names the frame format version, so a format change turns every older
// artifact into a key nobody asks for: a stale miss, never a corrupt
// hit.
func Key(kind, fingerprint string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + fingerprint))
	return fmt.Sprintf("%s-%x.v%d", kind, sum[:16], fileVersion)
}

// verifyEnvelope is the per-tier integrity gate: it parses the frame
// in place, checks magic, version and payload checksum, and confirms
// the frame's own kind and fingerprint hash back to the requested key
// (so a blob filed under the wrong name can never satisfy a lookup).
// The payload itself is decoded later by Load.
func verifyEnvelope(key string, raw []byte) error {
	f, err := parseFrame(raw)
	if err != nil {
		return fmt.Errorf("fieldcache: %s: %w", key, err)
	}
	if named := Key(string(f.kind), string(f.fingerprint)); named != key {
		return fmt.Errorf("fieldcache: frame for %s names key %s", key, named)
	}
	if sum := sha256.Sum256(f.payload); !bytes.Equal(sum[:], f.sum) {
		return fmt.Errorf("fieldcache: checksum mismatch for %s", key)
	}
	return nil
}

// Load looks up the artifact for (kind, fingerprint) and decodes its
// payload into out. It returns true only when a fully verified
// artifact was decoded; every failure mode — absent blob, bad magic or
// version, fingerprint mismatch, checksum mismatch, decode error, dead
// remote tier — is a miss, and the caller recomputes. The payload
// handed to out aliases the blob: UnmarshalBinary must copy what it
// keeps, as its contract requires.
func (c *Cache) Load(kind, fingerprint string, out encoding.BinaryUnmarshaler) bool {
	raw, err := c.store.Get(Key(kind, fingerprint))
	if err != nil {
		c.misses.Add(1)
		return false
	}
	// The tier verify hook has already checked magic, version, key and
	// checksum; re-parse the header (no copy) to reach the payload and
	// guard the exact kind/fingerprint pair once more.
	f, err := parseFrame(raw)
	if err != nil || string(f.kind) != kind || string(f.fingerprint) != fingerprint {
		c.markCorrupt()
		return false
	}
	if err := out.UnmarshalBinary(f.payload); err != nil {
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
func (c *Cache) Store(kind, fingerprint string, v encoding.BinaryMarshaler) error {
	if len(kind) > 1<<16-1 || uint64(len(fingerprint)) > 1<<32-1 {
		return fmt.Errorf("fieldcache: %s kind or fingerprint too long to frame", kind)
	}
	payload, err := v.MarshalBinary()
	if err != nil {
		return fmt.Errorf("fieldcache: encoding %s artifact: %w", kind, err)
	}
	raw := appendFrame(make([]byte, 0, headerLen+len(kind)+len(fingerprint)+len(payload)), kind, fingerprint, payload)
	if err := c.store.Put(Key(kind, fingerprint), raw); err != nil {
		return fmt.Errorf("fieldcache: storing %s artifact: %w", kind, err)
	}
	c.stores.Add(1)
	return nil
}
