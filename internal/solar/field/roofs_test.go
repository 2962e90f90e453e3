package field_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/solar/field"
)

// TestSectorKernelMatchesScalarOnRoofs pins the sector-sweep kernel
// against the retired scalar reference on the paper's three roofs
// (Fast fidelity, serial pass) at the percentiles {50, 75, 90}.
func TestSectorKernelMatchesScalarOnRoofs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three roof fields")
	}
	scs, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			ev, err := sc.FieldWith(scenario.FieldConfig{Grid: scenario.FastGrid(), Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, pct := range []float64{50, 75, 90} {
				field.SectorVsScalar(t, ev, pct)
			}
		})
	}
}
