// Command pvfloorplan plans a PV installation on one of the built-in
// scenarios and prints the resulting placements, energy report and
// maps. It is the interactive front-end of the library.
//
// Usage:
//
//	pvfloorplan -roof 2 -n 32            # fast fidelity, Roof 2
//	pvfloorplan -roof residential -n 8   # home rooftop
//	pvfloorplan -roof 1 -n 16 -full      # paper-fidelity full year
//	pvfloorplan -roof 3 -n 32 -pgm out/  # also dump PGM heat maps
//	pvfloorplan -roof 2 -n 32 -opt multistart -restarts 8
//	                                     # best net energy of greedy + 8 walks
//	pvfloorplan -roof 1 -full -cache ~/.pvcache
//	                                     # warm re-runs skip horizon +
//	                                     # statistics via the disk cache
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	pvfloor "repro"
	"repro/internal/fieldcache"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvfloorplan: ")
	roof := flag.String("roof", "2", "scenario: 1, 2, 3 or residential")
	modules := flag.Int("n", 32, "number of PV modules (multiple of 8)")
	full := flag.Bool("full", false, "full fidelity (15-minute full year)")
	noMaps := flag.Bool("nomaps", false, "suppress ASCII maps")
	pgmDir := flag.String("pgm", "", "directory to write PGM heat maps into")
	optName := flag.String("opt", "greedy", "optimizer strategy: greedy, multistart or bnb")
	seed := flag.Int64("seed", 1, "random seed for the multistart walks")
	iters := flag.Int("iters", 0, "annealing iterations per walk (0 = default 20000)")
	restarts := flag.Int("restarts", 0, "multistart restart count K (0 = default 8)")
	cacheDir := flag.String("cache", "", "persistent field-artifact cache directory (horizon maps + statistics reused across invocations)")
	flag.Parse()

	sc, err := pickScenario(*roof)
	if err != nil {
		log.Fatal(err)
	}
	fid := pvfloor.Fast
	if *full {
		fid = pvfloor.Full
	}
	strategy, err := pvfloor.ParseStrategy(*optName)
	if err != nil {
		log.Fatal(err)
	}
	var cache *fieldcache.Cache
	if *cacheDir != "" {
		if cache, err = pvfloor.OpenCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	res, err := pvfloor.Run(pvfloor.Config{
		Scenario: sc,
		Modules:  *modules,
		Fidelity: fid,
		Cache:    cache,
		Optimizer: pvfloor.OptimizerConfig{
			Strategy:   strategy,
			Seed:       *seed,
			Iterations: *iters,
			Restarts:   *restarts,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — %s\n", sc.Name, sc.Description)
	fmt.Printf("grid %dx%d, Ng = %d, N = %d (%s), optimizer %s\n\n",
		sc.Suitable.W(), sc.Suitable.H(), sc.Ng(), *modules, res.Proposed.Topology, strategy)
	if !*noMaps {
		fmt.Println("Suitability (p75 irradiance with temperature correction):")
		fmt.Println(res.SuitabilityMap(110))
		fmt.Println("Traditional placement:")
		fmt.Println(res.TraditionalMap(110))
		fmt.Println("Proposed placement:")
		fmt.Println(res.ProposedMap(110))
	}
	fmt.Println(report.FormatTableI([]report.TableIRow{res.TableIRow()}))
	fmt.Printf("improvement: %+.2f%%  (mismatch: trad %.1f%%, prop %.1f%%; wiring %.1f m, %.3f MWh loss)\n",
		res.ImprovementPct(),
		res.TraditionalEval.MismatchLoss()*100, res.ProposedEval.MismatchLoss()*100,
		res.ProposedEval.WiringExtraM, res.ProposedEval.WiringLossMWh)
	for _, w := range res.Proposed.Warnings {
		fmt.Println("note (proposed):", w)
	}
	for _, w := range res.Traditional.Warnings {
		fmt.Println("note (traditional):", w)
	}

	if *pgmDir != "" {
		if err := writePGMs(*pgmDir, sc.Name, res); err != nil {
			log.Fatal(err)
		}
		fmt.Println("PGM maps written to", *pgmDir)
	}
}

func pickScenario(name string) (*scenario.Scenario, error) {
	switch name {
	case "1":
		return pvfloor.Roof1()
	case "2":
		return pvfloor.Roof2()
	case "3":
		return pvfloor.Roof3()
	case "residential", "res":
		return pvfloor.Residential()
	default:
		return nil, fmt.Errorf("unknown scenario %q (want 1, 2, 3 or residential)", name)
	}
}

func writePGMs(dir, name string, res *pvfloor.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	field := render.Field{W: res.Suitability.W, H: res.Suitability.H, At: res.Suitability.At}
	path := filepath.Join(dir, fmt.Sprintf("%s-suitability.pgm", slug(name)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := render.HeatmapPGM(f, field); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
