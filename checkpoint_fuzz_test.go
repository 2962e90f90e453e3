package pvfloor

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/district"
	"repro/internal/geom"
)

// FuzzTileRecord feeds arbitrary bytes to DirCheckpoint.Lookup as the
// record file of tile 7, standing in for a crash-torn or tampered
// checkpoint. Lookup must never panic and never fail on a readable
// file: it returns nil (the tile re-runs) or a record whose version is
// tileRecordVersion and whose index is 7. Every mask of a returned
// record must also be readable at its corners, since a resumed run
// reads the restored roofs as it would live ones.
func FuzzTileRecord(f *testing.F) {
	footprint := geom.NewMask(5, 3)
	footprint.SetRect(geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 3}, true)
	suitable := footprint.Clone()
	suitable.Set(geom.Cell{X: 2, Y: 1}, false)
	good := TileRecord{
		Version: tileRecordVersion,
		Info:    CityTileInfo{Index: 7, Attempts: 1, Roofs: 1, GroundZ: 2.5},
		Roofs: []TileRoofRecord{{
			Roof: district.Roof{
				ID: 1, Rect: geom.Rect{X0: 4, Y0: 6, X1: 9, Y1: 9},
				Footprint: footprint, Obstacles: geom.NewMask(5, 3), Suitable: suitable,
				Cells: 15, Rectangularity: 1,
			},
			Modules: 8,
			Outcome: PlanOutcome{Planned: true, ProposedMWh: 1.5, TraditionalMWh: 1.25, GainPct: 20},
		}},
	}
	raw, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2]) // torn write
	wrongIndex := good
	wrongIndex.Info.Index = 8
	raw8, _ := json.Marshal(wrongIndex)
	f.Add(raw8)
	for _, s := range []string{
		``,
		`null`,
		`{}`,
		`{"version":1,"info":{"Index":7}}`,
		`{"version":2,"info":{"Index":7}}`,
		`{"version":1,"info":{"Index":7},"roofs":[{"roof":{"Footprint":{"w":4294967296,"h":4294967296,"bits":""}}}]}`,
		`{"version":1,"info":{"Index":7},"roofs":[{"roof":{"Obstacles":{"w":24,"h":768614336404564651,"bits":"AA=="}}}]}`,
		`{"version":1,"info":{"Index":7},"roofs":[{"roof":{"Suitable":{"w":3,"h":-1,"bits":""}}}]}`,
		`{"version":1,"info":{"Index":7},"roofs":null,"dropped":[{}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ckpt, err := NewDirCheckpoint(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt.path(7), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ckpt.Lookup(7)
		if err != nil {
			t.Fatalf("lookup of a readable record failed: %v", err)
		}
		if rec == nil {
			return
		}
		if rec.Version != tileRecordVersion || rec.Info.Index != 7 {
			t.Fatalf("lookup(7) returned version %d index %d", rec.Version, rec.Info.Index)
		}
		for _, rr := range rec.Roofs {
			for _, m := range []*geom.Mask{rr.Roof.Footprint, rr.Roof.Obstacles, rr.Roof.Suitable} {
				if m == nil || m.W() == 0 || m.H() == 0 {
					continue
				}
				for _, c := range []geom.Cell{{X: m.W() - 1, Y: 0}, {X: 0, Y: m.H() - 1}, {X: m.W() - 1, Y: m.H() - 1}} {
					m.Get(c)
				}
			}
		}
	})
}
