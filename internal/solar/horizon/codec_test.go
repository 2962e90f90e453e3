package horizon

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/dsm"
	"repro/internal/geom"
)

// Snapshot is a copy of a map's raw content, for bit comparisons.
type Snapshot struct {
	Region  geom.Rect
	Sectors int
	Tan     []float32
	SVF     []float32
}

// Snapshot copies the map's contents.
func (m *Map) Snapshot() Snapshot {
	return Snapshot{
		Region:  m.region,
		Sectors: m.sectors,
		Tan:     append([]float32(nil), m.tan...),
		SVF:     append([]float32(nil), m.svf...),
	}
}

// roundTrip encodes m and decodes the bytes into a fresh map.
func roundTrip(t *testing.T, m *Map) *Map {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Map
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return &got
}

// codecMap is a small built map whose arrays also hold the float32 bit
// patterns a codec can lose: NaN payloads, ±Inf and −0.
func codecMap(t *testing.T) *Map {
	t.Helper()
	r := flatRaster(t, 40, 30)
	r.MaxAbove(geom.Rect{X0: 20, Y0: 10, X1: 23, Y1: 13}, 4)
	m, err := Build(r, geom.Rect{X0: 4, Y0: 4, X1: 36, Y1: 26}, Options{Sectors: 16, MaxDistanceM: 10})
	if err != nil {
		t.Fatal(err)
	}
	special := []float32{
		math.Float32frombits(0x7fc00001), // quiet NaN with a payload
		math.Float32frombits(0xff800123), // negative signalling NaN
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)),
	}
	copy(m.tan[7:], special)
	copy(m.svf[3:], special)
	return m
}

// TestMapBinaryRoundTrip: a decoded map is bit-identical to the
// encoded one in every array, and keeps its region, sector count and
// build options.
func TestMapBinaryRoundTrip(t *testing.T) {
	m := codecMap(t)
	got := roundTrip(t, m)
	if got.Sectors() != m.Sectors() || got.Region() != m.Region() || got.BuildOptions() != m.BuildOptions() {
		t.Fatalf("restored %d/%v/%+v, want %d/%v/%+v", got.Sectors(), got.Region(), got.BuildOptions(),
			m.Sectors(), m.Region(), m.BuildOptions())
	}
	if i, ok := sameBits(got.tan, m.tan); !ok {
		t.Fatalf("tan[%d] bits %08x, want %08x", i, math.Float32bits(got.tan[i]), math.Float32bits(m.tan[i]))
	}
	if i, ok := sameBits(got.svf, m.svf); !ok {
		t.Fatalf("svf[%d] bits %08x, want %08x", i, math.Float32bits(got.svf[i]), math.Float32bits(m.svf[i]))
	}
	// The encoding is canonical: re-encoding the decoded map gives the
	// same bytes.
	a, _ := m.MarshalBinary()
	b, _ := got.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("re-encoded map differs from the original encoding")
	}
}

// putHeader overwrites one int64 header word of an encoding.
func putHeader(b []byte, word int, v int64) []byte {
	binary.LittleEndian.PutUint64(b[8*word:], uint64(v))
	return b
}

// TestUnmarshalBinaryRejectsMangledShapes: truncated, padded or
// inconsistent encodings are refused, not trusted, and a refused
// decode leaves the target map untouched.
func TestUnmarshalBinaryRejectsMangledShapes(t *testing.T) {
	r := flatRaster(t, 20, 20)
	m, err := Build(r, geom.Rect{X0: 2, Y0: 2, X1: 18, Y1: 18}, Options{Sectors: 8, MaxDistanceM: 5})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, bad := range map[string][]byte{
		"empty":             nil,
		"header only":       good[:mapHeaderLen],
		"short header":      good[:mapHeaderLen-1],
		"truncated svf":     good[:len(good)-4],
		"truncated tan":     good[:len(good)-4*16*16-4],
		"ragged tail":       good[:len(good)-1],
		"trailing bytes":    append(append([]byte(nil), good...), 0, 0, 0, 0),
		"sectors < 4":       mangle(func(b []byte) []byte { return putHeader(b, 4, 3) }),
		"zero sectors":      mangle(func(b []byte) []byte { return putHeader(b, 4, 0) }),
		"negative sectors":  mangle(func(b []byte) []byte { return putHeader(b, 4, -8) }),
		"sectors disagree":  mangle(func(b []byte) []byte { return putHeader(b, 4, 16) }),
		"empty region":      mangle(func(b []byte) []byte { return putHeader(b, 2, 2) }),
		"inverted region":   mangle(func(b []byte) []byte { return putHeader(b, 3, -5) }),
		"region disagrees":  mangle(func(b []byte) []byte { return putHeader(b, 2, 19) }),
		"zero march step":   mangle(func(b []byte) []byte { return putHeader(b, 6, 0) }),
		"huge region":       mangle(func(b []byte) []byte { return putHeader(putHeader(b, 2, math.MaxInt64), 0, math.MinInt64) }),
		"huge sector count": mangle(func(b []byte) []byte { return putHeader(b, 4, math.MaxInt64) }),
	} {
		target := *m
		if err := target.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: mangled encoding accepted", name)
		}
		if target.region != m.region || &target.tan[0] != &m.tan[0] {
			t.Errorf("%s: failed decode modified the target", name)
		}
	}
	var ok Map
	if err := ok.UnmarshalBinary(good); err != nil {
		t.Errorf("pristine encoding rejected: %v", err)
	}
}

// TestUnmarshalBinaryRejectsNonCanonicalBitmap: on a one-cell,
// four-sector map (five values, so three spare bitmap bits) a set bit
// past the last value, or a set bit whose value is +0, is refused.
func TestUnmarshalBinaryRejectsNonCanonicalBitmap(t *testing.T) {
	r := flatRaster(t, 4, 4)
	m, err := Build(r, geom.Rect{X0: 1, Y0: 1, X1: 2, Y1: 2}, Options{Sectors: 4, MaxDistanceM: 1})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A flat raster: four +0 tangents and an SVF of 1.
	if want := mapHeaderLen + 1 + 4; len(good) != want || good[mapHeaderLen] != 1<<4 {
		t.Fatalf("encoding is %d bytes with bitmap %08b, want %d bytes with bitmap 00010000",
			len(good), good[mapHeaderLen], want)
	}
	one := binary.LittleEndian.AppendUint32(nil, math.Float32bits(1))
	withBody := func(bitmap byte, lits ...[]byte) []byte {
		b := append(bytes.Clone(good[:mapHeaderLen]), bitmap)
		for _, l := range lits {
			b = append(b, l...)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"bit past the last value": withBody(1<<4|1<<5, one, one),
		"set bit on +0":           withBody(1<<4|1, []byte{0, 0, 0, 0}, one),
		"missing value":           withBody(1<<4|1, one),
	} {
		var got Map
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := roundTrip(t, m); got.SVFIdx(0) != 1 || got.TanRow(0)[3] != 0 {
		t.Errorf("round trip of the one-cell map: svf %v, tan %v", got.SVFIdx(0), got.TanRow(0))
	}
}

// TestUnmarshalBinaryBoundsAllocation: a header declaring a 2^31-cell
// region over a 40-byte body fails without allocating anything sized
// by the header.
func TestUnmarshalBinaryBoundsAllocation(t *testing.T) {
	b := make([]byte, mapHeaderLen+40)
	putHeader(b, 2, 1<<16) // X1: 65536 columns
	putHeader(b, 3, 1<<15) // Y1: 32768 rows
	putHeader(b, 4, 64)
	for i, v := range []float64{80, 0.1, 12, 0.5, 0.05} {
		binary.LittleEndian.PutUint64(b[8*(5+i):], math.Float64bits(v))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m Map
	err := m.UnmarshalBinary(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^31-cell header over a 40-byte body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("rejecting the header allocated %d bytes", grew)
	}
}

// FuzzMapUnmarshal: any input either fails to decode or decodes to a
// map whose arrays match its header and whose re-encoding is the
// input itself. Decoding never panics.
func FuzzMapUnmarshal(f *testing.F) {
	r, err := dsm.NewRaster(10, 8, 0.2)
	if err != nil {
		f.Fatal(err)
	}
	r.SetRectTo(geom.Rect{X0: 5, Y0: 0, X1: 6, Y1: 8}, 3)
	for _, tc := range []struct {
		region geom.Rect
		opts   Options
	}{
		{geom.Rect{X0: 3, Y0: 4, X1: 7, Y1: 6}, Options{Sectors: 4, MaxDistanceM: 2}},
		{geom.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}, Options{Sectors: 8, MaxDistanceM: 1}},
	} {
		m, err := Build(r, tc.region, tc.opts)
		if err != nil {
			f.Fatal(err)
		}
		b, _ := m.MarshalBinary()
		f.Add(b)
	}
	f.Add(make([]byte, mapHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		area := m.region.Area()
		if area <= 0 || m.sectors < 4 || len(m.tan) != area*m.sectors || len(m.svf) != area ||
			m.opts.Sectors != m.sectors {
			t.Fatalf("decoded map breaks its shape invariants: %v x %d, %d/%d values",
				m.region, m.sectors, len(m.tan), len(m.svf))
		}
		again, err := m.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs from the accepted input (err %v)", err)
		}
	})
}
