package geom

import (
	"encoding/json"
	"testing"
)

func TestMaskJSONRoundTrip(t *testing.T) {
	in := NewMask(13, 7) // deliberately not a multiple of 8
	for _, c := range []Cell{{0, 0}, {12, 6}, {5, 3}, {7, 0}, {0, 6}} {
		in.Set(c, true)
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Mask
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.W() != in.W() || out.H() != in.H() {
		t.Fatalf("dims %dx%d, want %dx%d", out.W(), out.H(), in.W(), in.H())
	}
	for y := 0; y < in.H(); y++ {
		for x := 0; x < in.W(); x++ {
			c := Cell{x, y}
			if out.Get(c) != in.Get(c) {
				t.Fatalf("bit %v = %v after round trip", c, out.Get(c))
			}
		}
	}
}

func TestMaskJSONEmptyAndNil(t *testing.T) {
	raw, err := json.Marshal(NewMask(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var out Mask
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.W() != 0 || out.H() != 0 || out.Count() != 0 {
		t.Fatalf("empty mask round trip = %dx%d count %d", out.W(), out.H(), out.Count())
	}
	// A nil *Mask field must encode as JSON null and decode back to nil.
	type holder struct {
		M *Mask `json:"m"`
	}
	raw, err = json.Marshal(holder{})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"m":null}` {
		t.Fatalf("nil mask encodes as %s", raw)
	}
	var h holder
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.M != nil {
		t.Fatal("null must decode to a nil mask")
	}
}

func TestMaskJSONRejectsBadShapes(t *testing.T) {
	var out Mask
	for _, raw := range []string{
		`{"w":-1,"h":2,"bits":""}`,
		`{"w":8,"h":1,"bits":"x"}`,                      // invalid base64
		`{"w":8,"h":1,"bits":""}`,                       // too few bytes
		`{"w":1,"h":1,"bits":"AAA="}`,                   // too many bytes
		`{"w":4294967296,"h":4294967296,"bits":""}`,     // w·h wraps to 0
		`{"w":24,"h":768614336404564651,"bits":"AA=="}`, // w·h wraps to 8
	} {
		if err := json.Unmarshal([]byte(raw), &out); err == nil {
			t.Errorf("unmarshal %s succeeded, want error", raw)
		}
	}
}
