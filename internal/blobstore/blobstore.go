// Package blobstore is the storage seam under the pipeline's
// content-addressed artifacts: a narrow Backend interface (Get, Put,
// Stat over opaque keys) with a durable local-directory
// implementation, an HTTP client for a remote tier, a server handler
// that exposes any backend over HTTP, and a Tiered composition that
// layers backends fastest-first as a read-through/write-through
// hierarchy with per-tier counters.
//
// The package carries bytes, not meaning: callers own the key scheme
// and the payload framing. Keys are expected to be content-addressed
// (derived from a collision-resistant hash of everything the payload
// depends on), which is what makes entries portable across processes
// and machines: the same key always names the same bytes, so a tier
// can be populated by any process and read by any other, and stale
// entries are simply never asked for. internal/fieldcache layers its
// checksummed artifact envelope on top; internal/tilestore stores
// uploaded DSM tiles keyed by their content hash.
//
// Backends are infrastructure, not truth: every caller in this module
// treats a failed Get as a miss and recomputes, so a dead remote tier
// degrades throughput, never correctness.
package blobstore

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"repro/internal/faultfs"
)

// ErrNotFound reports a key with no blob behind it. Backends must
// return it (possibly wrapped) for absent keys so callers can tell a
// clean miss from infrastructure failure.
var ErrNotFound = errors.New("blobstore: blob not found")

// Backend is one blob tier. All implementations must be safe for
// concurrent use.
type Backend interface {
	// Get returns the blob stored under key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Put stores data under key. Content-addressed keys make
	// concurrent puts of one key benign: both writers carry identical
	// bytes by construction.
	Put(key string, data []byte) error
	// Stat returns the stored blob's size, or ErrNotFound.
	Stat(key string) (int64, error)
}

// maxKeyLen bounds key length; generous for hash-derived names while
// staying well inside every filesystem's component limit.
const maxKeyLen = 200

// ValidKey reports whether key is safe to use as both a file name and
// a URL path segment: ASCII letters, digits, '.', '_' and '-', not
// starting with a dot (no hidden files, no "." / ".." traversal).
func ValidKey(key string) bool {
	if key == "" || len(key) > maxKeyLen || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("blobstore: invalid key %q", key)
	}
	return nil
}

// Dir is the durable local backend: one file per blob in a flat
// directory, published with full crash safety (temp file + fsync +
// rename + directory fsync via faultfs.WriteFileAtomic) so concurrent
// writers — goroutines or whole processes sharing the directory —
// race benignly and a power cut can never commit a torn blob.
type Dir struct {
	dir  string
	fsys faultfs.FS
}

// OpenDir creates (if needed) and opens a directory backend. A nil
// fsys selects the real filesystem; tests pass a faultfs.Injector to
// drive the production write path under failing or torn IO.
func OpenDir(dir string, fsys faultfs.FS) (*Dir, error) {
	if dir == "" {
		return nil, fmt.Errorf("blobstore: empty directory")
	}
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: creating %s: %w", dir, err)
	}
	return &Dir{dir: dir, fsys: fsys}, nil
}

// Path maps key to its file path without touching the filesystem.
// Callers that need OS-level access to a blob (e.g. windowed raster
// readers) combine it with Stat.
func (d *Dir) Path(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", err
	}
	return filepath.Join(d.dir, key), nil
}

// Get returns the blob stored under key.
func (d *Dir) Get(key string) ([]byte, error) {
	p, err := d.Path(key)
	if err != nil {
		return nil, err
	}
	raw, err := d.fsys.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("blobstore: reading %s: %w", key, err)
	}
	return raw, nil
}

// Put atomically and durably publishes data under key.
func (d *Dir) Put(key string, data []byte) error {
	p, err := d.Path(key)
	if err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(d.fsys, p, data, 0o644); err != nil {
		return fmt.Errorf("blobstore: storing %s: %w", key, err)
	}
	return nil
}

// Stat returns the stored blob's size. It reads the file through the
// faultfs seam (which has no stat surface) — Stat is a metadata
// convenience for HEAD handlers and tests, not a hot path.
func (d *Dir) Stat(key string) (int64, error) {
	raw, err := d.Get(key)
	if err != nil {
		return 0, err
	}
	return int64(len(raw)), nil
}

// Count returns the number of published blobs in the directory
// (temporary in-flight files are excluded).
func (d *Dir) Count() (int, error) {
	ents, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return 0, fmt.Errorf("blobstore: listing %s: %w", d.dir, err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n, nil
}
