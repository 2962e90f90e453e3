package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	pvfloor "repro"
)

// cityStream posts one city request and returns the decoded lines.
func cityStream(t *testing.T, s *Server, req CityRequest) []map[string]json.RawMessage {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/city", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	return ndjsonLines(t, w.Body.String())
}

// TestCityStreamMatchesDistrict pins the /v1/city contract: a 2×2
// tiled sweep over the committed neighborhood tile streams a full
// tile lifecycle, roof events with tile provenance, and a final city
// report whose per-roof rows and totals are float-exact against the
// monolithic district endpoint over the same grid.
func TestCityStreamMatchesDistrict(t *testing.T) {
	s := newTestServer(t, Options{CacheDir: t.TempDir(), TilesDir: t.TempDir()})
	ref := uploadFixture(t, s)

	dLines := districtStream(t, s, ref)
	var district pvfloor.DistrictReport
	if err := json.Unmarshal(dLines[len(dLines)-1]["district"], &district); err != nil {
		t.Fatal(err)
	}

	lines := cityStream(t, s, CityRequest{
		DistrictRequest: DistrictRequest{TileRef: ref},
		TileCells:       80, // the 160×120 fixture → 4 work tiles
	})

	started, finished, extracted, planned := 0, 0, 0, 0
	for _, obj := range lines[:len(lines)-1] {
		switch eventOf(t, obj) {
		case "tile-started":
			started++
		case "tile-finished":
			finished++
		case "roof-extracted":
			extracted++
			var ev CityRoofEvent
			raw, _ := json.Marshal(obj)
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Tile < 0 || ev.Tile >= 4 {
				t.Errorf("roof event tile %d out of range", ev.Tile)
			}
		case "roof-planned":
			planned++
		default:
			t.Fatalf("unexpected event %q mid-stream", eventOf(t, obj))
		}
	}
	if started != 4 || finished != 4 {
		t.Errorf("tile lifecycle: %d started / %d finished, want 4/4", started, finished)
	}
	if extracted != len(district.Roofs) || planned != len(district.Roofs) {
		t.Errorf("roof events: %d extracted / %d planned, want %d each (each roof exactly once)",
			extracted, planned, len(district.Roofs))
	}

	last := lines[len(lines)-1]
	if ev := eventOf(t, last); ev != "result" {
		t.Fatalf("last event = %q, want result", ev)
	}
	var city pvfloor.CityReport
	if err := json.Unmarshal(last["city"], &city); err != nil {
		t.Fatal(err)
	}
	if len(city.Tiles) != 4 {
		t.Fatalf("city report has %d tiles, want 4", len(city.Tiles))
	}
	if len(city.Roofs) != len(district.Roofs) {
		t.Fatalf("city report has %d roofs, district %d", len(city.Roofs), len(district.Roofs))
	}
	// Per-roof byte-equivalence: the city row minus tile provenance is
	// exactly the district row — same geometry, energies and rank.
	for i := range city.Roofs {
		cRow, err := json.Marshal(city.Roofs[i].RoofReport)
		if err != nil {
			t.Fatal(err)
		}
		dRow, err := json.Marshal(district.Roofs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(cRow) != string(dRow) {
			t.Errorf("roof %d diverges from the district endpoint\ncity:     %s\ndistrict: %s",
				i+1, cRow, dRow)
		}
	}
	cTot, _ := json.Marshal(city.Totals)
	dTot, _ := json.Marshal(district.Totals)
	if string(cTot) != string(dTot) {
		t.Errorf("totals diverge\ncity:     %s\ndistrict: %s", cTot, dTot)
	}
}

// TestCityRequestValidation covers the fail-fast surface of /v1/city.
func TestCityRequestValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"no tile":               `{}`,
		"demo and tile":         `{"demo":true,"tile_ref":"asc-ffff"}`,
		"retired tile_asc":      `{"tile_asc":"x"}`,
		"negative tile cells":   `{"demo":true,"tile_cells":-1}`,
		"negative workers":      `{"demo":true,"tile_workers":-1}`,
		"bad modules":           `{"demo":true,"modules":12}`,
		"unknown field":         `{"demo":true,"mem_budget":1}`,
		"caller keep (extract)": `{"demo":true,"extract":{"keep":true}}`,
	} {
		w := postJSON(t, s, "/v1/city", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
}
