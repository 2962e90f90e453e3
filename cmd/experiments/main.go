// Command experiments regenerates every table and figure of the
// paper's evaluation (§V) plus the ablation studies listed in
// DESIGN.md, printing paper-comparable outputs and optionally writing
// figure artifacts (PGM/CSV) to a directory.
//
//	experiments                 # everything, fast fidelity
//	experiments -full           # paper fidelity (full year, 15 min)
//	experiments -only table1    # a single experiment
//	experiments -out artifacts  # also write PGM/CSV figures
//
// Experiments: table1, fig1, fig6, fig7, fig2, fig3, fig4, overhead,
// runtime, ablation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	pvfloor "repro"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/objective"
	"repro/internal/optimize"
	"repro/internal/panel"
	"repro/internal/pvmodel"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/solar/field"
	"repro/internal/wiring"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	full := flag.Bool("full", false, "paper fidelity: 15-minute full-year simulation, fine horizon maps")
	only := flag.String("only", "", "run a single experiment (table1, fig1, fig6, fig7, fig2, fig3, fig4, overhead, runtime, ablation)")
	outDir := flag.String("out", "", "directory for PGM/CSV artifacts")
	flag.Parse()

	fid := pvfloor.Fast
	if *full {
		fid = pvfloor.Full
	}

	run := func(name string, fn func()) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		fmt.Printf("==================== %s ====================\n", strings.ToUpper(name))
		fn()
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	h := newHarness(fid, *outDir)
	run("table1", h.tableI)
	run("fig1", h.fig1)
	run("fig6", h.fig6)
	run("fig7", h.fig7)
	run("fig2", h.fig2)
	run("fig3", h.fig3)
	run("fig4", h.fig4)
	run("overhead", h.overhead)
	run("runtime", h.runtime)
	run("ablation", h.ablation)
}

// harness caches scenarios and runs so the experiments share the
// expensive field constructions.
type harness struct {
	fid    pvfloor.Fidelity
	outDir string
	runs   map[string]*pvfloor.Result // keyed roofName/N
	scs    []*scenario.Scenario
}

func newHarness(fid pvfloor.Fidelity, outDir string) *harness {
	scs, err := scenario.All()
	if err != nil {
		log.Fatal(err)
	}
	return &harness{fid: fid, outDir: outDir, runs: map[string]*pvfloor.Result{}, scs: scs}
}

func (h *harness) fields(sc *scenario.Scenario) *field.Evaluator {
	// Field construction is cached through the first Run per roof.
	key := sc.Name + "/field"
	if r, ok := h.runs[key]; ok {
		return r.Evaluator
	}
	var ev *field.Evaluator
	var err error
	if h.fid == pvfloor.Full {
		ev, err = sc.Field(scenario.FullYearGrid())
	} else {
		ev, err = sc.FieldFast(scenario.FastGrid())
	}
	if err != nil {
		log.Fatal(err)
	}
	h.runs[key] = &pvfloor.Result{Evaluator: ev}
	return ev
}

func (h *harness) result(sc *scenario.Scenario, n int) *pvfloor.Result {
	key := fmt.Sprintf("%s/%d", sc.Name, n)
	if r, ok := h.runs[key]; ok {
		return r
	}
	res, err := pvfloor.RunWithField(pvfloor.Config{Scenario: sc, Modules: n, Fidelity: h.fid}, h.fields(sc))
	if err != nil {
		log.Fatalf("%s N=%d: %v", sc.Name, n, err)
	}
	h.runs[key] = res
	return res
}

// tableI regenerates Table I: roof characteristics and the yearly
// production of traditional vs proposed placements for N in {16,32}.
func (h *harness) tableI() {
	paper := map[string][2][3]float64{ // roof -> [N16, N32] of {trad, prop, pct}
		"Roof 1": {{3.430, 4.094, 19.37}, {6.729, 7.499, 11.44}},
		"Roof 2": {{2.971, 3.619, 21.85}, {5.941, 7.404, 23.63}},
		"Roof 3": {{2.957, 3.642, 23.16}, {5.746, 7.405, 28.86}},
	}
	var rows []report.TableIRow
	for _, sc := range h.scs {
		for _, n := range []int{16, 32} {
			res := h.result(sc, n)
			row := res.TableIRow()
			if n == 32 {
				row.Roof, row.W, row.L, row.Ng = "", 0, 0, 0 // match the paper's row grouping
			}
			rows = append(rows, row)
		}
	}
	fmt.Println(report.FormatTableI(rows))
	fmt.Println("Paper reference (Table I):")
	cmp := report.NewTable("roof", "N", "paper trad", "paper prop", "paper %", "ours %")
	for _, sc := range h.scs {
		for i, n := range []int{16, 32} {
			p := paper[sc.Name][i]
			res := h.result(sc, n)
			cmp.AddRowf("%s|%d|%0.3f|%0.3f|%+0.2f|%+0.2f", sc.Name, n, p[0], p[1], p[2], res.ImprovementPct())
		}
	}
	fmt.Println(cmp)
}

// fig1 prints the conceptual compact-vs-sparse comparison (the
// paper's motivation figure) on a synthetic surface: a west-east
// gradient with bright pockets a rigid block cannot reach, a shaded
// band and a vent stack.
func (h *harness) fig1() {
	const w, ht = 72, 32
	suit := &floorplan.Suitability{W: w, H: ht, S: make([]float64, w*ht)}
	for y := 0; y < ht; y++ {
		for x := 0; x < w; x++ {
			v := 40.0 + 0.4*float64(x)
			switch {
			case x > 8 && x < 22 && y > 4 && y < 12: // bright pocket NW
				v += 45
			case x > 50 && y > 20: // bright pocket SE
				v += 40
			case y >= 14 && y <= 17: // shaded band across the middle
				v -= 30
			}
			suit.S[y*w+x] = v
		}
	}
	mask := geom.NewMask(w, ht)
	mask.Fill(true)
	mask.SetRect(geom.Rect{X0: 34, Y0: 2, X1: 40, Y1: 8}, false) // vent stack
	opts := floorplan.Options{
		Shape:    floorplan.ModuleShape{W: 8, H: 4}, // 1.6 m x 0.8 m on the 0.2 m grid
		Topology: panel.Topology{SeriesPerString: 4, Strings: 2},
		// Fig. 1 is "clearly only conceptual" (paper §II-A): the point
		// is reaching both bright pockets, so the locality filter that
		// keeps real placements wiring-friendly is disabled here.
		Policy: floorplan.PolicyNone,
	}
	compact, err := floorplan.PlanCompact(suit, mask, opts)
	if err != nil {
		log.Fatal(err)
	}
	sparse, err := floorplan.Plan(suit, mask, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Suitability field (bright = better):")
	fmt.Println(render.HeatmapASCII(render.Field{W: w, H: ht, At: suit.At}, 72))
	fmt.Println("Fig. 1(a) — traditional compact placement:")
	fmt.Println(render.PlacementASCII(mask, compact, 72))
	fmt.Println("Fig. 1(b) — sparse placement from the greedy floorplanner:")
	fmt.Println(render.PlacementASCII(mask, sparse, 72))
	fmt.Printf("suitability totals: traditional %.1f, sparse %.1f (%+.1f%%)\n",
		compact.SuitabilitySum, sparse.SuitabilitySum,
		(sparse.SuitabilitySum-compact.SuitabilitySum)/compact.SuitabilitySum*100)
}

// fig6 renders the 75th-percentile irradiance maps of the roofs.
func (h *harness) fig6() {
	for _, sc := range h.scs {
		res := h.result(sc, 16)
		fmt.Printf("%s p75 irradiance distribution (brighter = larger, Fig. 6(b)):\n", sc.Name)
		fmt.Println(res.SuitabilityMap(110))
		h.writeArtifact(fmt.Sprintf("fig6-%s.pgm", slug(sc.Name)), func(w *os.File) error {
			return render.HeatmapPGM(w, render.Field{W: res.Suitability.W, H: res.Suitability.H, At: res.Suitability.At})
		})
		h.writeArtifact(fmt.Sprintf("fig6-%s.csv", slug(sc.Name)), func(w *os.File) error {
			return render.FieldCSV(w, render.Field{W: res.Suitability.W, H: res.Suitability.H, At: res.Suitability.At})
		})
	}
}

// fig7 renders the traditional and proposed N=32 placements.
func (h *harness) fig7() {
	for _, sc := range h.scs {
		res := h.result(sc, 32)
		fmt.Printf("%s traditional placement (Fig. 7 a-c):\n%s\n", sc.Name, res.TraditionalMap(110))
		fmt.Printf("%s proposed placement (Fig. 7 d-f):\n%s\n", sc.Name, res.ProposedMap(110))
	}
}

// fig2 regenerates the cell/module I-V characteristics.
func (h *harness) fig2() {
	dio := pvmodel.PVMF165EB3Diode()
	tb := report.NewTable("G (W/m²)", "T_act (°C)", "Voc (V)", "Isc (A)", "Vmpp (V)", "Impp (A)", "Pmax (W)")
	for _, g := range []float64{200, 600, 1000} {
		for _, tc := range []float64{10, 25, 60} {
			op := dio.MPP(g, tc)
			tb.AddRowf("%5.0f|%5.0f|%6.2f|%6.3f|%6.2f|%6.3f|%6.1f",
				g, tc, dio.Voc(g, tc), dio.Isc(g, tc), op.Voltage, op.Current, op.Power)
		}
	}
	fmt.Println("Fig. 2(a) — single-diode characteristics:")
	fmt.Println(tb)
	h.writeArtifact("fig2-ivcurves.csv", func(w *os.File) error {
		fmt.Fprintln(w, "g,tact,v,i,p")
		for _, g := range []float64{200, 600, 1000} {
			for _, tc := range []float64{10, 25, 60} {
				for _, pt := range dio.IVCurve(g, tc, 60) {
					fmt.Fprintf(w, "%g,%g,%.4f,%.4f,%.4f\n", g, tc, pt.V, pt.I, pt.P)
				}
			}
		}
		return nil
	})
}

// fig3 regenerates the PV-MF165EB3 power characteristics: the
// normalised datasheet dependences the paper's model is fitted from.
func (h *harness) fig3() {
	emp := pvmodel.PVMF165EB3()
	fmt.Println("Fig. 3 — empirical model characteristics (normalised to 1000 W/m², 25 °C):")
	ref := emp.MPP(1000, 25)
	tb := report.NewTable("G (W/m²)", "P/Pref", "V/Vref", "Voc/VocRef")
	for _, g := range []float64{200, 400, 600, 800, 1000} {
		op := emp.MPP(g, 25)
		tb.AddRowf("%5.0f|%6.3f|%6.3f|%6.3f", g, op.Power/ref.Power, op.Voltage/ref.Voltage,
			emp.Voc(g, 25)/emp.Voc(1000, 25))
	}
	fmt.Println(tb)
	tb2 := report.NewTable("T_act (°C)", "P/Pref", "V/Vref")
	for _, tc := range []float64{0, 25, 50, 75} {
		op := emp.MPP(1000, tc)
		tb2.AddRowf("%4.0f|%6.3f|%6.3f", tc, op.Power/ref.Power, op.Voltage/ref.Voltage)
	}
	fmt.Println(tb2)
	fmt.Printf("power swing over G∈[200,1000]: %.1fx (paper: 5x)\n",
		emp.MPP(1000, 25).Power/emp.MPP(200, 25).Power)
}

// fig4 regenerates the wiring-overhead characterisation.
func (h *harness) fig4() {
	spec := wiring.AWG10(scenario.CellSizeM)
	fmt.Println("Fig. 4 — wiring overhead of a displaced module pair (d_h + d_v, metres):")
	tb := report.NewTable("d_h (cells)", "d_v (cells)", "extra cable (m)", "loss @4A (W)")
	shape := floorplan.ModuleShape{W: 8, H: 4}
	for _, d := range []struct{ dh, dv int }{{0, 0}, {5, 0}, {0, 5}, {10, 10}, {25, 10}} {
		a := shape.Rect(geom.Cell{})
		b := shape.Rect(geom.Cell{X: 8 + d.dh, Y: d.dv})
		l := spec.ChainOverheadMeters([]geom.Rect{a, b})
		tb.AddRowf("%3d|%3d|%5.1f|%6.3f", d.dh, d.dv, l, spec.PowerLossW(l, 4))
	}
	fmt.Println(tb)
}

// overhead runs the §V-C assessment on the worst-case placement.
func (h *harness) overhead() {
	spec := wiring.AWG10(scenario.CellSizeM)
	fmt.Println("§V-C overhead assessment (4 A reference, 50% dark time):")
	tb := report.NewTable("roof", "N", "extra cable (m)", "loss (kWh/yr)", "cost ($)", "%/m of production")
	worst := 0.0
	for _, sc := range h.scs {
		for _, n := range []int{16, 32} {
			res := h.result(sc, n)
			a, err := spec.Assess(res.Proposed.Rects, res.Proposed.Topology.SeriesPerString,
				4.0, 0.5, res.ProposedEval.GrossMWh)
			if err != nil {
				log.Fatal(err)
			}
			if a.ExtraCableM > worst {
				worst = a.ExtraCableM
			}
			tb.AddRowf("%s|%d|%0.1f|%0.2f|%0.0f|%0.4f%%",
				sc.Name, n, a.ExtraCableM, a.AnnualLossKWh, a.CostUSD, a.LossFractionPerM*100)
		}
	}
	fmt.Println(tb)
	fmt.Printf("worst-case extra cable: %.1f m (paper: ≈20 m); loss-per-metre bound: 0.05%%/m (paper)\n", worst)
}

// runtime measures placement-algorithm scaling (§V-B: proportional to
// Ng and N, < 120 s at ≈12k cells on the paper's 2017 server).
func (h *harness) runtime() {
	fmt.Println("§V-B runtime scaling of the placement algorithm alone:")
	tb := report.NewTable("roof", "Ng", "N", "greedy (ms)", "compact (ms)")
	for _, sc := range h.scs {
		res := h.result(sc, 16) // reuse stats/suitability
		for _, n := range []int{16, 32} {
			topo, err := scenario.Topology(n)
			if err != nil {
				log.Fatal(err)
			}
			opts := floorplan.Options{Shape: sc.Shape, Topology: topo}
			t0 := time.Now()
			if _, err := floorplan.Plan(res.Suitability, sc.Suitable, opts); err != nil {
				log.Fatal(err)
			}
			tGreedy := time.Since(t0)
			t0 = time.Now()
			if _, err := floorplan.PlanCompact(res.Suitability, sc.Suitable, opts); err != nil {
				log.Fatal(err)
			}
			tCompact := time.Since(t0)
			tb.AddRowf("%s|%d|%d|%0.1f|%0.1f", sc.Name, sc.Ng(), n,
				float64(tGreedy.Microseconds())/1000, float64(tCompact.Microseconds())/1000)
		}
	}
	fmt.Println(tb)
}

// ablation runs A1-A4: suitability percentile, distance policy,
// optimality gap and annealing headroom.
func (h *harness) ablation() {
	sc := h.scs[1] // Roof 2
	ev := h.fields(sc)
	mod := pvmodel.PVMF165EB3()
	spec := wiring.AWG10(scenario.CellSizeM)
	topo, err := scenario.Topology(32)
	if err != nil {
		log.Fatal(err)
	}
	opts := floorplan.Options{Shape: sc.Shape, Topology: topo}

	fmt.Println("A1 — suitability statistic (Roof 2, N=32):")
	tb1 := report.NewTable("statistic", "net MWh", "wiring (m)")
	for _, pct := range []float64{50, 75, 90} {
		cs, err := ev.StatsPercentile(pct)
		if err != nil {
			log.Fatal(err)
		}
		suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pl, err := floorplan.Plan(suit, sc.Suitable, opts)
		if err != nil {
			log.Fatal(err)
		}
		e, err := floorplan.Evaluate(ev, mod, pl, spec)
		if err != nil {
			log.Fatal(err)
		}
		tb1.AddRowf("p%.0f|%0.3f|%0.1f", pct, e.NetMWh(), e.WiringExtraM)
	}
	cs, err := ev.Stats()
	if err != nil {
		log.Fatal(err)
	}
	suitMean, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{UseMean: true})
	if err != nil {
		log.Fatal(err)
	}
	plMean, err := floorplan.Plan(suitMean, sc.Suitable, opts)
	if err != nil {
		log.Fatal(err)
	}
	eMean, err := floorplan.Evaluate(ev, mod, plMean, spec)
	if err != nil {
		log.Fatal(err)
	}
	tb1.AddRowf("mean|%0.3f|%0.1f", eMean.NetMWh(), eMean.WiringExtraM)
	fmt.Println(tb1)

	fmt.Println("A2 — distance policy / tie band (Roof 2, N=32):")
	suit, err := floorplan.ComputeSuitability(cs, floorplan.SuitabilityOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tb2 := report.NewTable("policy", "tie eps", "net MWh", "wiring (m)")
	for _, pol := range []floorplan.DistancePolicy{floorplan.PolicyChain, floorplan.PolicyCentroid, floorplan.PolicyNone} {
		for _, eps := range []float64{-1, 0.03, 0.06} {
			o := opts
			o.Policy = pol
			o.TieEpsilonRel = eps
			pl, err := floorplan.Plan(suit, sc.Suitable, o)
			if err != nil {
				log.Fatal(err)
			}
			e, err := floorplan.Evaluate(ev, mod, pl, spec)
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("%.2f", eps)
			if eps < 0 {
				label = "exact"
			}
			tb2.AddRowf("%s|%s|%0.3f|%0.1f", pol, label, e.NetMWh(), e.WiringExtraM)
		}
	}
	fmt.Println(tb2)

	fmt.Println("A3 — greedy vs branch-and-bound optimal (reduced instances):")
	tb3 := report.NewTable("grid", "N", "greedy score", "optimal score", "gap")
	sub, subMask := crop(suit, sc.Suitable, 60, 24)
	for _, n := range []int{2, 3, 4} {
		problem := optimize.Problem{Suit: sub, Mask: subMask, Opts: floorplan.Options{
			Shape: sc.Shape, Topology: panel.Topology{SeriesPerString: n, Strings: 1},
		}}
		g, _, err := optimize.Greedy{}.Place(problem)
		if err != nil {
			log.Fatal(err)
		}
		o, _, err := optimize.BranchBound{}.Place(problem)
		if err != nil {
			log.Fatal(err)
		}
		gap := (o.SuitabilitySum - g.SuitabilitySum) / o.SuitabilitySum * 100
		tb3.AddRowf("60x24|%d|%0.1f|%0.1f|%0.2f%%", n, g.SuitabilitySum, o.SuitabilitySum, gap)
	}
	fmt.Println(tb3)

	fmt.Println("A4 — annealing refinement over the greedy seed (Roof 2, N=32):")
	plGreedy, err := floorplan.Plan(suit, sc.Suitable, opts)
	if err != nil {
		log.Fatal(err)
	}
	eGreedy, err := floorplan.Evaluate(ev, mod, plGreedy, spec)
	if err != nil {
		log.Fatal(err)
	}
	obj, err := objective.New(suit, sc.Suitable, objective.Params{
		Shape: opts.Shape, Topology: opts.Topology,
		WiringWeight: objective.DefaultWiringWeight, Spec: spec,
	})
	if err != nil {
		log.Fatal(err)
	}
	refined, err := optimize.Refine(obj, plGreedy, 1, 30000)
	if err != nil {
		log.Fatal(err)
	}
	eRef, err := floorplan.Evaluate(ev, mod, refined, spec)
	if err != nil {
		log.Fatal(err)
	}
	tb4 := report.NewTable("placement", "suit sum", "net MWh", "wiring (m)")
	tb4.AddRowf("greedy|%0.1f|%0.3f|%0.1f", plGreedy.SuitabilitySum, eGreedy.NetMWh(), eGreedy.WiringExtraM)
	tb4.AddRowf("greedy+anneal|%0.1f|%0.3f|%0.1f", refined.SuitabilitySum, eRef.NetMWh(), eRef.WiringExtraM)
	fmt.Println(tb4)
}

func (h *harness) writeArtifact(name string, fn func(*os.File) error) {
	if h.outDir == "" {
		return
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(h.outDir, name)
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

// crop cuts the top-left w×h corner out of a suitability matrix and
// its mask (the reduced branch-and-bound instances).
func crop(s *floorplan.Suitability, mask *geom.Mask, w, h int) (*floorplan.Suitability, *geom.Mask) {
	sub := &floorplan.Suitability{W: w, H: h, S: make([]float64, w*h)}
	m := geom.NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := geom.Cell{X: x, Y: y}
			sub.S[y*w+x] = s.At(c)
			m.Set(c, mask.Get(c))
		}
	}
	return sub, m
}

func slug(s string) string { return strings.ReplaceAll(strings.ToLower(s), " ", "") }
