// Command roofgen exports the built-in synthetic scenarios as ESRI
// ASCII grid DSMs (plus the suitable-area mask as CSV), so they can
// be inspected in QGIS/GRASS alongside real LiDAR data — or serve as
// fixtures for pipelines that expect .asc input. The reverse path
// (loading a real .asc DSM) goes through internal/gis.ReadAsc.
//
//	roofgen -out scenes/            # all scenarios
//	roofgen -roof 1 -out scenes/    # a single roof
//	roofgen -district -out testdata/district
//	                                # the synthetic multi-roof
//	                                # neighborhood tile (the committed
//	                                # district fixture)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/district"
	"repro/internal/dsm"
	"repro/internal/geom"
	"repro/internal/gis"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roofgen: ")
	roof := flag.String("roof", "all,residential", "comma list of scenarios: all (the Table I roofs), 1, 2, 3, residential")
	outDir := flag.String("out", "scenes", "output directory")
	districtTile := flag.Bool("district", false, "export the synthetic multi-roof neighborhood tile instead of the paper scenarios")
	flag.Parse()

	if *districtTile {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, d := range []struct {
			name string
			tile *dsm.Raster
		}{
			{"neighborhood", district.SyntheticNeighborhood()},
			{"gabled", district.SyntheticGabledBlock()},
		} {
			path := filepath.Join(*outDir, d.name+".asc")
			if err := writeRaster(path, d.tile); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: %s (%dx%d cells at %g m)\n",
				d.name, path, d.tile.W(), d.tile.H(), d.tile.CellSize())
		}
		return
	}

	scs, err := scenario.Select(*roof)
	if err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, sc := range scs {
		base := strings.ReplaceAll(strings.ToLower(sc.Name), " ", "")
		ascPath := filepath.Join(*outDir, base+".asc")
		if err := writeAsc(ascPath, sc); err != nil {
			log.Fatal(err)
		}
		maskPath := filepath.Join(*outDir, base+"-suitable.csv")
		if err := writeMask(maskPath, sc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s (%dx%d cells, Ng=%d), %s\n",
			sc.Name, ascPath, sc.Scene.Raster.W(), sc.Scene.Raster.H(), sc.Ng(), maskPath)
	}
}

func writeAsc(path string, sc *scenario.Scenario) error {
	return writeRaster(path, sc.Scene.Raster)
}

func writeRaster(path string, r *dsm.Raster) error {
	g := gis.FromRaster(r, 0, 0)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := g.WriteAsc(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMask(path string, sc *scenario.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	fmt.Fprintln(f, "x,y,suitable")
	for y := 0; y < sc.Suitable.H(); y++ {
		for x := 0; x < sc.Suitable.W(); x++ {
			v := 0
			if sc.Suitable.Get(geom.Cell{X: x, Y: y}) {
				v = 1
			}
			fmt.Fprintf(f, "%d,%d,%d\n", x, y, v)
		}
	}
	return f.Close()
}
