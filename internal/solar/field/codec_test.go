package field

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/solar/horizon"
)

// codecStats holds every float64 bit pattern a codec can lose: NaN
// "no data" cells with payloads, ±Inf and −0.
func codecStats() *CellStats {
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	return &CellStats{
		W: 3, H: 2, Pct: 75, Samples: 1<<40 + 7,
		GPct:    []float64{nan(0x7ff8000000000001), 812.5, math.Inf(1), 0, math.Copysign(0, -1), 1e-300},
		GMean:   []float64{nan(0xfff0000000000001), 401.25, math.Inf(-1), 3, 4, 5},
		TactPct: []float64{math.NaN(), 31.5, 32, nan(0x7ff0dead0000beef), -12, 44},
	}
}

func TestCellStatsBinaryRoundTrip(t *testing.T) {
	in := codecStats()
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out CellStats
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	sameStats(t, "round trip", in, &out)
	again, err := out.MarshalBinary()
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("re-encoding differs (err %v)", err)
	}
	in.GMean = in.GMean[:5]
	if _, err := in.MarshalBinary(); err == nil {
		t.Error("arrays shorter than W×H encoded")
	}
}

func TestCellStatsUnmarshalRejectsMangled(t *testing.T) {
	good, err := codecStats().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(word int, v int64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[8*word:], uint64(v))
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"short header":   good[:statsHeaderLen-1],
		"truncated":      good[:len(good)-8],
		"ragged tail":    good[:len(good)-1],
		"trailing bytes": append(bytes.Clone(good), 0),
		"W disagrees":    withHeader(0, 2),
		"H disagrees":    withHeader(1, 3),
		"negative W":     withHeader(0, -3),
		"huge W":         withHeader(0, math.MaxInt64),
	} {
		target := *codecStats()
		if err := target.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: mangled encoding accepted", name)
		}
		if target.W != 3 || len(target.GPct) != 6 {
			t.Errorf("%s: failed decode modified the target", name)
		}
	}
}

// TestCellStatsUnmarshalBoundsAllocation: a header declaring 2^31
// cells over a 40-byte body fails without allocating anything sized by
// the header.
func TestCellStatsUnmarshalBoundsAllocation(t *testing.T) {
	b := make([]byte, statsHeaderLen+40)
	binary.LittleEndian.PutUint64(b, 1<<16)
	binary.LittleEndian.PutUint64(b[8:], 1<<15)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var cs CellStats
	err := cs.UnmarshalBinary(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^31-cell header over a 40-byte body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("rejecting the header allocated %d bytes", grew)
	}
}

// writeV1TileArtifact files m in dir exactly as the format-1 cache did:
// a gob envelope around a gob snapshot, under the ".gob" key.
func writeV1TileArtifact(t *testing.T, dir, fp string, m *horizon.Map) {
	t.Helper()
	type Snapshot struct {
		Region  geom.Rect
		Sectors int
		Tan     []float32
		SVF     []float32
	}
	type envelope struct {
		Magic       string
		Version     int
		Kind        string
		Fingerprint string
		Payload     []byte
		Sum         [sha256.Size]byte
	}
	snap := Snapshot{Region: m.Region(), Sectors: m.Sectors()}
	for idx := range m.Region().Area() {
		snap.Tan = append(snap.Tan, m.TanRow(idx)...)
		snap.SVF = append(snap.SVF, float32(m.SVFIdx(idx)))
	}
	var payload, frame bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		t.Fatal(err)
	}
	env := envelope{"pvfield-cache", 1, kindTileHorizon, fp, payload.Bytes(), sha256.Sum256(payload.Bytes())}
	if err := gob.NewEncoder(&frame).Encode(env); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(kindTileHorizon + "\x00" + fp))
	name := fmt.Sprintf("%s-%x.gob", kindTileHorizon, sum[:16])
	if err := os.WriteFile(filepath.Join(dir, name), frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleV1TileArtifactIsCleanMiss: a cache directory that holds the
// format-1 artifact for exactly this tile map serves a clean miss —
// counted as a miss, never as corruption — and the rebuilt map is
// bit-identical to a cold build; the next run hits.
func TestStaleV1TileArtifactIsCleanMiss(t *testing.T) {
	scene := testScene(t)
	regions := []geom.Rect{scene.RoofRect}
	opts := horizon.Options{Sectors: 16, MaxDistanceM: 6}
	cold, _, err := TileHorizon(scene.Raster, regions, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeV1TileArtifact(t, dir, tileHorizonFingerprint(scene.Raster, regions, opts.Resolved(scene.Raster.CellSize())), cold)
	cache, err := fieldcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, hit, err := TileHorizon(scene.Raster, regions, opts, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if m := cache.Metrics(); hit || m.Hits != 0 || m.Misses != 1 || m.Corrupt != 0 {
		t.Fatalf("hit %v, metrics %+v: want one clean miss", hit, m)
	}
	if !bytes.Equal(mapBytes(t, warm), mapBytes(t, cold)) {
		t.Fatal("map rebuilt beside a format-1 artifact differs from the cold build")
	}
	if _, hit, err := TileHorizon(scene.Raster, regions, opts, 0, cache); err != nil || !hit {
		t.Fatalf("second run: hit %v, err %v; want a hit", hit, err)
	}
}

// TestTileHorizonRejectsForeignOptions: a verified artifact under the
// tile key whose map was marched with other options than the key
// names is not served; the map is rebuilt with the requested ones.
func TestTileHorizonRejectsForeignOptions(t *testing.T) {
	scene := testScene(t)
	regions := []geom.Rect{scene.RoofRect}
	opts := horizon.Options{Sectors: 16, MaxDistanceM: 6}
	foreign, err := horizon.BuildRegions(scene.Raster, regions, horizon.Options{Sectors: 8, MaxDistanceM: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := fieldcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := tileHorizonFingerprint(scene.Raster, regions, opts.Resolved(scene.Raster.CellSize()))
	if err := cache.Store(kindTileHorizon, fp, foreign); err != nil {
		t.Fatal(err)
	}
	m, hit, err := TileHorizon(scene.Raster, regions, opts, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit || m.Sectors() != 16 {
		t.Fatalf("hit %v with %d sectors: a map with foreign options was served", hit, m.Sectors())
	}
}
