package geom

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
)

// maskJSON is the wire form of a Mask: dimensions plus the bits packed
// 8-per-byte in row-major order, base64-encoded. Masks appear in city
// tile checkpoint records, where a packed encoding keeps per-tile
// records small (a 512×512 footprint is 32 KiB instead of a 260 KiB
// bool array).
type maskJSON struct {
	W    int    `json:"w"`
	H    int    `json:"h"`
	Bits string `json:"bits,omitempty"`
}

// MarshalJSON encodes the mask as {"w","h","bits"} with bits packed
// and base64-encoded.
func (m *Mask) MarshalJSON() ([]byte, error) {
	packed := make([]byte, (len(m.bits)+7)/8)
	for i, b := range m.bits {
		if b {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	return json.Marshal(maskJSON{
		W:    m.w,
		H:    m.h,
		Bits: base64.StdEncoding.EncodeToString(packed),
	})
}

// UnmarshalJSON decodes the representation written by MarshalJSON.
func (m *Mask) UnmarshalJSON(data []byte) error {
	var wire maskJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	if wire.W < 0 || wire.H < 0 {
		return fmt.Errorf("geom: mask JSON with negative dimensions %dx%d", wire.W, wire.H)
	}
	if wire.H > 0 && wire.W > math.MaxInt/wire.H {
		return fmt.Errorf("geom: mask JSON dimensions %dx%d overflow int", wire.W, wire.H)
	}
	packed, err := base64.StdEncoding.DecodeString(wire.Bits)
	if err != nil {
		return fmt.Errorf("geom: mask JSON bits: %w", err)
	}
	n := wire.W * wire.H
	if len(packed) != (n+7)/8 {
		return fmt.Errorf("geom: mask JSON bits hold %d bytes, want %d for %dx%d", len(packed), (n+7)/8, wire.W, wire.H)
	}
	m.w, m.h = wire.W, wire.H
	m.bits = make([]bool, n)
	for i := range m.bits {
		m.bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return nil
}
