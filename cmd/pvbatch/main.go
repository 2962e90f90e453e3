// Command pvbatch plans the built-in scenarios — the front-end of the
// library. It builds the cross product of the requested roofs, module
// counts and optimizer strategies, fans the runs out on the concurrent
// batch engine (sharing one solar field per roof), and prints per-run
// results plus a Table-I-style summary, optionally with each run's
// suitability and placement maps.
//
// Usage:
//
//	pvbatch                          # all Table I roofs, N=16 and 32
//	pvbatch -roofs all,residential   # include the home rooftop
//	pvbatch -roofs 2 -n 32 -maps     # one roof with its ASCII maps
//	pvbatch -roofs 3 -n 32 -pgm out/ # also dump PGM heat maps
//	pvbatch -roofs 2 -n 8,16,24,32   # module-count sweep on Roof 2
//	pvbatch -opt greedy,multistart   # optimizer-strategy sweep
//	pvbatch -full -runs 2            # paper fidelity, 2 runs at a time
//	pvbatch -json                    # machine-readable per-run output
//	pvbatch -cache ~/.pvcache        # reuse horizon maps + statistics
//	                                 # across invocations (bit-identical)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	pvfloor "repro"
	"repro/internal/fieldcache"
	"repro/internal/render"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvbatch: ")
	roofs := flag.String("roofs", "all", "comma list of scenarios: all, 1, 2, 3, residential")
	counts := flag.String("n", "16,32", "comma list of module counts (multiples of 8)")
	full := flag.Bool("full", false, "full fidelity (15-minute full year) — about ten times Fast's cost, seconds per roof")
	runs := flag.Int("runs", 0, "concurrent runs (0 = one per CPU)")
	workers := flag.Int("workers", 0, "solar-field workers per shared field (0 = one per CPU, 1 = serial)")
	noBaseline := flag.Bool("nobaseline", false, "skip the compact baseline placement")
	asJSON := flag.Bool("json", false, "emit per-run results as JSON instead of text")
	optNames := flag.String("opt", "greedy", "comma list of optimizer strategies: greedy, multistart, bnb")
	seed := flag.Int64("seed", 1, "random seed for the multistart walks")
	restarts := flag.Int("restarts", 0, "multistart restart count K (0 = default 8)")
	iters := flag.Int("iters", 0, "annealing iterations per multistart walk (0 = default 20000)")
	maps := flag.Bool("maps", false, "print each run's suitability and placement maps, mismatch and wiring")
	pgmDir := flag.String("pgm", "", "directory to write each run's suitability PGM heat map into")
	cacheDir := flag.String("cache", "", "persistent field-artifact cache directory (horizon maps + statistics reused across invocations)")
	flag.Parse()

	if *maps && *asJSON {
		log.Fatal("-maps prints text; drop -json")
	}
	scs, err := scenario.Select(*roofs)
	if err != nil {
		log.Fatal(err)
	}
	ns, err := parseCounts(*counts)
	if err != nil {
		log.Fatal(err)
	}
	strategies, err := parseStrategies(*optNames)
	if err != nil {
		log.Fatal(err)
	}

	fid := pvfloor.Fast
	if *full {
		fid = pvfloor.Full
	}
	var cache *fieldcache.Cache
	if *cacheDir != "" {
		if cache, err = pvfloor.OpenCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	var cfgs []pvfloor.Config
	for _, sc := range scs {
		for _, n := range ns {
			for _, strat := range strategies {
				cfgs = append(cfgs, pvfloor.Config{
					Scenario:     sc,
					Modules:      n,
					Fidelity:     fid,
					SkipBaseline: *noBaseline,
					Cache:        cache,
					Optimizer: pvfloor.OptimizerConfig{
						Strategy:   strat,
						Seed:       *seed,
						Iterations: *iters,
						Restarts:   *restarts,
					},
				})
			}
		}
	}

	start := time.Now()
	results, err := pvfloor.RunBatch(cfgs, pvfloor.BatchOptions{
		Concurrency:  *runs,
		FieldWorkers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if *asJSON {
		if err := emitJSON(results); err != nil {
			log.Fatal(err)
		}
	} else {
		emitText(results, elapsed, *maps)
	}
	if *pgmDir != "" {
		if err := writePGMs(*pgmDir, results); err != nil {
			log.Fatal(err)
		}
	}
	for _, br := range results {
		if br.Err != nil {
			os.Exit(1)
		}
	}
}

func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad module count %q: %w", tok, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no module counts given")
	}
	return out, nil
}

func parseStrategies(spec string) ([]pvfloor.Strategy, error) {
	var out []pvfloor.Strategy
	seen := map[pvfloor.Strategy]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		s, err := pvfloor.ParseStrategy(tok)
		if err != nil {
			return nil, err
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no optimizer strategies given")
	}
	return out, nil
}

func emitText(results []pvfloor.BatchRun, elapsed time.Duration, maps bool) {
	for _, br := range results {
		if br.Err != nil {
			fmt.Printf("%-24s FAILED  %v\n", br.Name, br.Err)
			continue
		}
		built := ""
		if br.FieldBuilt {
			built = "  [built field]"
		}
		fmt.Printf("%-24s %8.1f ms  proposed %.3f MWh  gain %+.2f%%%s\n",
			br.Name, float64(br.Elapsed.Microseconds())/1000,
			br.Result.ProposedEval.NetMWh(), br.Result.ImprovementPct(), built)
	}
	if maps {
		for _, br := range results {
			if br.Err == nil {
				printMaps(br)
			}
		}
	}
	fmt.Println()
	fmt.Print(pvfloor.BatchTableI(results))
	fmt.Printf("\n%d runs in %v\n", len(results), elapsed.Round(time.Millisecond))
}

// printMaps prints one run's suitability, traditional and proposed
// maps, its mismatch and wiring figures and the placement notes.
func printMaps(br pvfloor.BatchRun) {
	res, sc := br.Result, br.Config.Scenario
	fmt.Printf("\n%s — %s\n", br.Name, sc.Description)
	fmt.Printf("grid %dx%d, Ng = %d, N = %d (%s)\n\n",
		sc.Suitable.W(), sc.Suitable.H(), sc.Ng(), br.Config.Modules, res.Proposed.Topology)
	fmt.Println("Suitability (p75 irradiance with temperature correction):")
	fmt.Println(res.SuitabilityMap(110))
	if res.Traditional != nil {
		fmt.Println("Traditional placement:")
		fmt.Println(res.TraditionalMap(110))
	}
	fmt.Println("Proposed placement:")
	fmt.Println(res.ProposedMap(110))
	fmt.Printf("improvement: %+.2f%%  (mismatch: trad %.1f%%, prop %.1f%%; wiring %.1f m, %.3f MWh loss)\n",
		res.ImprovementPct(),
		res.TraditionalEval.MismatchLoss()*100, res.ProposedEval.MismatchLoss()*100,
		res.ProposedEval.WiringExtraM, res.ProposedEval.WiringLossMWh)
	for _, w := range res.Proposed.Warnings {
		fmt.Println("note (proposed):", w)
	}
	if res.Traditional != nil {
		for _, w := range res.Traditional.Warnings {
			fmt.Println("note (traditional):", w)
		}
	}
}

// writePGMs writes each successful run's suitability heat map to
// dir/<run>-suitability.pgm, where <run> is the run name in lower case
// with every character but a letter or digit replaced by '-'.
func writePGMs(dir string, results []pvfloor.BatchRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	for _, br := range results {
		if br.Err != nil {
			continue
		}
		s := br.Result.Suitability
		path := filepath.Join(dir, slug(br.Name)+"-suitability.pgm")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("creating %s: %w", path, err)
		}
		if err := render.HeatmapPGM(f, render.Field{W: s.W, H: s.H, At: s.At}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return nil
}

func slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '-'
	}, s)
}

// runJSON is the machine-readable shape of one batch run.
type runJSON struct {
	Name           string  `json:"name"`
	Roof           string  `json:"roof"`
	Modules        int     `json:"modules"`
	Optimizer      string  `json:"optimizer,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	FieldBuilt     bool    `json:"field_built"`
	ProposedMWh    float64 `json:"proposed_mwh,omitempty"`
	TraditionalMWh float64 `json:"traditional_mwh,omitempty"`
	GainPct        float64 `json:"gain_pct,omitempty"`
	WiringExtraM   float64 `json:"wiring_extra_m,omitempty"`
	Error          string  `json:"error,omitempty"`
}

func emitJSON(results []pvfloor.BatchRun) error {
	out := make([]runJSON, 0, len(results))
	for _, br := range results {
		rj := runJSON{
			Name:      br.Name,
			ElapsedMS: float64(br.Elapsed.Microseconds()) / 1000,
		}
		if br.Config.Scenario != nil {
			rj.Roof = br.Config.Scenario.Name
		}
		rj.Modules = br.Config.Modules
		rj.Optimizer = string(br.Config.Optimizer.Strategy)
		rj.FieldBuilt = br.FieldBuilt
		if br.Err != nil {
			rj.Error = br.Err.Error()
		} else {
			rj.ProposedMWh = br.Result.ProposedEval.NetMWh()
			rj.TraditionalMWh = br.Result.TraditionalEval.NetMWh()
			rj.GainPct = br.Result.ImprovementPct()
			rj.WiringExtraM = br.Result.ProposedEval.WiringExtraM
		}
		out = append(out, rj)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
