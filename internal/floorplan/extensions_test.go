package floorplan

import "testing"

func TestShapeOnGrid(t *testing.T) {
	s, err := ShapeOnGrid(1.6, 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s.W != 8 || s.H != 4 {
		t.Errorf("paper module shape = %dx%d, want 8x4", s.W, s.H)
	}
	s2, err := ShapeOnGrid(1.6, 1.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.W != 8 || s2.H != 5 {
		t.Errorf("320W module shape = %dx%d, want 8x5", s2.W, s2.H)
	}
	if _, err := ShapeOnGrid(1.65, 0.99, 0.2); err == nil {
		t.Error("non-multiple geometry must be rejected")
	}
	if _, err := ShapeOnGrid(1.6, 0.8, 0); err == nil {
		t.Error("zero cell size must be rejected")
	}
	if _, err := ShapeOnGrid(0.05, 0.8, 0.2); err == nil {
		t.Error("sub-cell module must be rejected")
	}
}
