package tilestore

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/gis"
)

const sampleASC = "ncols 3\nnrows 2\ncellsize 1\nNODATA_value -9999\n1 2 3\n4 -9999 6\n"

func gz(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutAndReopen(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Put(strings.NewReader(sampleASC))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.Ref, "asc-") {
		t.Fatalf("ref = %q", info.Ref)
	}
	if info.NCols != 3 || info.NRows != 2 || info.Cells != 6 || info.NoData != 1 || info.CellSize != 1 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Checksum) != 64 {
		t.Fatalf("checksum = %q, want sha256 hex", info.Checksum)
	}
	if n, err := s.Count(); err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}

	// The stored tile round-trips through the windowed ingestion path.
	path, err := s.Path(info.Ref)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gis.OpenWindowed(path, gis.WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, mask, err := w.Window(geom.Rect{X0: 0, Y0: 0, X1: 3, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.At(geom.Cell{X: 2, Y: 0}); got != 3 {
		t.Errorf("cell (2,0) = %g, want 3", got)
	}
	if mask == nil || !mask.Get(geom.Cell{X: 1, Y: 1}) {
		t.Error("NODATA cell lost through the store")
	}
}

// TestContentAddressing pins ref stability: the same grid uploaded
// plain and gzipped yields one ref and one stored blob.
func TestContentAddressing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Put(strings.NewReader(sampleASC))
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := s.Put(bytes.NewReader(gz(t, sampleASC)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ref != zipped.Ref || plain.Checksum != zipped.Checksum {
		t.Fatalf("plain %+v vs gzipped %+v", plain, zipped)
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("count = %d, want 1 (dedup)", n)
	}
	// A different grid gets a different ref.
	other, err := s.Put(strings.NewReader("ncols 1\nnrows 1\ncellsize 2\n7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if other.Ref == plain.Ref {
		t.Fatal("distinct tiles share a ref")
	}
	if n, _ := s.Count(); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

func TestPutRejectsInvalidTiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{
		"empty":          "",
		"no header":      "1 2\n3 4\n",
		"short row":      "ncols 3\nnrows 2\ncellsize 1\n1 2 3\n4 5\n",
		"missing rows":   "ncols 2\nnrows 3\ncellsize 1\n1 2\n3 4\n",
		"bad token":      "ncols 2\nnrows 1\ncellsize 1\n1 zz\n",
		"zero cellsize":  "ncols 2\nnrows 1\ncellsize 0\n1 2\n",
		"truncated gzip": string(gz(t, sampleASC)[:10]),
	}
	for name, body := range bad {
		if _, err := s.Put(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if n, _ := s.Count(); n != 0 {
		t.Fatalf("count after rejects = %d, want 0", n)
	}
}

func TestPathUnknownRef(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Path("asc-0000000000000000000000000000dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ref = %v, want ErrNotFound", err)
	}
	if _, err := s.Path("../escape"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("traversal ref = %v, want validation error", err)
	}
}

// FuzzTilePut feeds Put arbitrary uploads: plain bytes, gzip streams
// of them, and gzip bombs that repeat them up to 8 MiB from a few
// kilobytes. Put must return an error or a ref whose Info matches the
// uncompressed content, never panic, and allocate in proportion to
// the uncompressed bytes it may read — at most MaxTileBytes+1 — plus a
// fixed allowance for the gzip codecs, never by a header's claim. The
// factor is 16: the read buffer, the line scanner's buffer and the
// parsed values come to 5–10 times the uncompressed bytes. (The 1 GiB
// cap itself is too large to exercise here.)
func FuzzTilePut(f *testing.F) {
	f.Add([]byte(sampleASC), uint16(0), uint8(0))
	f.Add([]byte(sampleASC), uint16(0), uint8(1))
	f.Add([]byte("ncols 100000000\nnrows 100000000\ncellsize 1\n"), uint16(0), uint8(0))
	f.Add([]byte("0 "), uint16(8191), uint8(2))
	f.Add([]byte("ncols 2\nnrows 1\ncellsize 1\n1 2\n"), uint16(4096), uint8(2))
	f.Add([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, uint16(0), uint8(0))
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, bombKB uint16, mode uint8) {
		body := data
		switch mode % 3 {
		case 1:
			body = gzBytes(t, data)
		case 2:
			if len(data) == 0 {
				return
			}
			n := (int(bombKB)%8192 + 1) << 10 / len(data)
			body = gzBytes(t, bytes.Repeat(data, n+1))
		}
		plain := uncompressedLen(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := s.Put(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if limit := 16*plain + 16<<20; after.TotalAlloc-before.TotalAlloc > uint64(limit) {
			t.Fatalf("Put allocated %d bytes for %d uncompressed bytes (limit %d)",
				after.TotalAlloc-before.TotalAlloc, plain, limit)
		}
		if err != nil {
			return
		}
		if !strings.HasPrefix(info.Ref, refPrefix) || info.Cells != info.NCols*info.NRows || info.NoData > info.Cells {
			t.Fatalf("info = %+v", info)
		}
		if _, err := s.Path(info.Ref); err != nil {
			t.Fatalf("stored tile %s: %v", info.Ref, err)
		}
	})
}

func gzBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uncompressedLen returns how many bytes Put may read from body: its
// gunzipped length when it carries the gzip magic, capped at
// MaxTileBytes+1.
func uncompressedLen(body []byte) int {
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		return len(body)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0
	}
	n, _ := io.Copy(io.Discard, io.LimitReader(zr, MaxTileBytes+1))
	return int(n)
}
