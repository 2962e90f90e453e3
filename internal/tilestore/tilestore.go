// Package tilestore is the content-addressed store behind POST
// /v1/tiles: uploaded DSM tiles (ESRI ASCII grids, plain or gzipped)
// are validated, hashed and filed under a ref derived from their
// uncompressed content, so a fleet-wide tile needs to cross the wire
// once and every later district/city/job request names it by ref
// instead of re-sending megabytes of ASC text.
//
// Refs are content addresses ("asc-" + truncated SHA-256 of the
// uncompressed grid): uploading the same tile twice — from any client,
// in either compression form — yields the same ref and a single stored
// blob, and a ref can never silently point at different bytes.
// Storage rides on blobstore.Dir, so tiles get the same crash-safe
// publish (temp + fsync + rename + dir fsync) as cache artifacts, and
// resumed jobs can re-open an uploaded tile by ref after a process
// restart.
//
// Tiles are stored gzip-compressed regardless of upload form;
// gis.OpenWindowed sniffs the magic and decompresses transparently, so
// Path's result feeds straight into the windowed ingestion path.
package tilestore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/blobstore"
	"repro/internal/gis"
)

// ErrNotFound reports a ref with no tile behind it.
var ErrNotFound = errors.New("tilestore: tile not found")

// MaxTileBytes caps a tile's uncompressed size (guards against
// decompression bombs on the upload path).
const MaxTileBytes = 1 << 30

// refPrefix marks ESRI ASC tile refs.
const refPrefix = "asc-"

// Info describes a stored tile — the POST /v1/tiles response body.
type Info struct {
	// Ref is the content address ("asc-<hex>") to pass as tile_ref.
	Ref string `json:"tile_ref"`
	// NCols and NRows are the grid dimensions.
	NCols int `json:"ncols"`
	NRows int `json:"nrows"`
	// Cells is the total cell count (NCols × NRows).
	Cells int `json:"cells"`
	// NoData is the number of cells carrying the NODATA sentinel or NaN.
	NoData int `json:"nodata_cells"`
	// CellSize is the grid pitch in metres.
	CellSize float64 `json:"cellsize_m"`
	// Checksum is the full SHA-256 of the uncompressed grid, for
	// client-side verification.
	Checksum string `json:"checksum"`
}

// Store holds uploaded tiles in one directory.
type Store struct {
	dir *blobstore.Dir
}

// Open creates (if needed) and opens a tile directory.
func Open(dir string) (*Store, error) {
	d, err := blobstore.OpenDir(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("tilestore: %w", err)
	}
	return &Store{dir: d}, nil
}

// Put validates, hashes and stores one uploaded tile. body is the
// upload payload — a plain or gzip-compressed ASC grid (sniffed by
// magic bytes). The whole grid is structurally validated (header,
// row count, every value parses) by the windowed reader's converter before
// anything is stored, so a ref always names a tile the pipeline can
// ingest. Storing an already-present tile is a no-op returning the
// same ref.
func (s *Store) Put(body io.Reader) (Info, error) {
	plain, err := gis.MaybeGunzip(body)
	if err != nil {
		return Info{}, fmt.Errorf("tilestore: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(plain, MaxTileBytes+1))
	if err != nil {
		return Info{}, fmt.Errorf("tilestore: reading tile: %w", err)
	}
	if len(raw) > MaxTileBytes {
		return Info{}, fmt.Errorf("tilestore: tile exceeds %d uncompressed bytes", MaxTileBytes)
	}
	info, err := validate(raw)
	if err != nil {
		return Info{}, err
	}
	sum := sha256.Sum256(raw)
	info.Ref = refPrefix + fmt.Sprintf("%x", sum[:16])
	info.Checksum = fmt.Sprintf("%x", sum)
	if _, err := s.dir.Stat(info.Ref); err == nil {
		return info, nil // content-addressed: already stored, same bytes
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return Info{}, fmt.Errorf("tilestore: compressing tile: %w", err)
	}
	if err := zw.Close(); err != nil {
		return Info{}, fmt.Errorf("tilestore: compressing tile: %w", err)
	}
	if err := s.dir.Put(info.Ref, zbuf.Bytes()); err != nil {
		return Info{}, fmt.Errorf("tilestore: %w", err)
	}
	return info, nil
}

// validate runs the upload through gis.ScanAsc — the converter
// gis.OpenWindowed runs, with its checks — counting NODATA cells as
// the rows stream past, and fills the dimensional fields of Info.
func validate(raw []byte) (Info, error) {
	var info Info
	g, err := gis.ScanAsc(bytes.NewReader(raw), func(g *gis.AscGrid, vals []float64) error {
		for _, v := range vals {
			if g.IsNoData(v) {
				info.NoData++
			}
		}
		return nil
	})
	if err != nil {
		return Info{}, fmt.Errorf("tilestore: invalid tile: %w", err)
	}
	info.NCols, info.NRows, info.Cells, info.CellSize = g.NCols, g.NRows, g.NCols*g.NRows, g.CellSize
	return info, nil
}

// Path returns the stored tile's file path for ref — ready for
// gis.OpenWindowed — or ErrNotFound.
func (s *Store) Path(ref string) (string, error) {
	if _, err := s.dir.Stat(ref); err != nil {
		if errors.Is(err, blobstore.ErrNotFound) {
			return "", fmt.Errorf("%w: %s", ErrNotFound, ref)
		}
		return "", fmt.Errorf("tilestore: %w", err)
	}
	return s.dir.Path(ref)
}

// Count returns the number of stored tiles.
func (s *Store) Count() (int, error) { return s.dir.Count() }
