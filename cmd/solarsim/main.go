// Command solarsim runs only the solar-data-extraction stage of the
// pipeline (§IV): it simulates the spatio-temporal irradiance and
// temperature field over a scenario roof and dumps the per-cell
// statistics — the inputs the floorplanner consumes — as a terminal
// heat map and optional PGM/CSV artifacts.
//
//	solarsim -roof 1                 # fast fidelity, ASCII map
//	solarsim -roof 2 -pct 90         # a different percentile
//	solarsim -roof 3 -full -out d/   # paper fidelity, write artifacts
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solarsim: ")
	roof := flag.String("roof", "2", "scenario: 1, 2, 3 or residential")
	pct := flag.Float64("pct", 75, "irradiance percentile to map")
	full := flag.Bool("full", false, "full fidelity (15-minute full year)")
	outDir := flag.String("out", "", "directory for PGM/CSV artifacts")
	flag.Parse()

	sc, err := scenario.ByName(*roof)
	if err != nil {
		log.Fatal(err)
	}

	ev := mustField(sc, *full)
	cs, err := ev.StatsPercentile(*pct)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — solar field statistics (p%.0f over %d samples)\n\n", sc.Name, *pct, cs.Samples)
	gField := render.Field{W: cs.W, H: cs.H, At: func(c geom.Cell) float64 { g, _, _ := cs.At(c); return g }}
	fmt.Printf("p%.0f plane-of-array irradiance (W/m²):\n%s\n", *pct, render.HeatmapASCII(gField, 110))
	tField := render.Field{W: cs.W, H: cs.H, At: func(c geom.Cell) float64 { _, _, t := cs.At(c); return t }}
	fmt.Printf("p%.0f actual module temperature (°C):\n%s\n", *pct, render.HeatmapASCII(tField, 110))

	// Aggregate distribution of the per-cell percentiles.
	var vals []float64
	for y := 0; y < cs.H; y++ {
		for x := 0; x < cs.W; x++ {
			c := geom.Cell{X: x, Y: y}
			if cs.Valid(c) {
				g, _, _ := cs.At(c)
				vals = append(vals, g)
			}
		}
	}
	sum, err := stats.Summarize(vals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("across %d valid cells: min %.0f, p25 %.0f, median %.0f, p75 %.0f, max %.0f W/m² (skewness %.2f)\n",
		sum.N, sum.Min, sum.P25, sum.P50, sum.P75, sum.Max, sum.Skewness)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		base := strings.ReplaceAll(strings.ToLower(sc.Name), " ", "")
		writeArtifact(filepath.Join(*outDir, base+"-g.pgm"), func(f *os.File) error {
			return render.HeatmapPGM(f, gField)
		})
		writeArtifact(filepath.Join(*outDir, base+"-g.csv"), func(f *os.File) error {
			return render.FieldCSV(f, gField)
		})
	}
}

func mustField(sc *scenario.Scenario, full bool) *field.Evaluator {
	if full {
		ev, err := sc.Field(scenario.FullYearGrid())
		if err != nil {
			log.Fatal(err)
		}
		return ev
	}
	ev, err := sc.FieldFast(scenario.FastGrid())
	if err != nil {
		log.Fatal(err)
	}
	return ev
}

func writeArtifact(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}
