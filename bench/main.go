// Command bench is the repository benchmark: it times the four paths a
// user of the PV floorplanning system sees — a Table I roof run, a
// district sweep (cold, warm-local, warm-remote), a city sweep and
// requests to the pvserve HTTP front-end — on inputs generated from a
// seed, checks every output against a serial reference, and prints
// every metric by name with its unit. With --trace 1 it splits the same
// workloads by layer instead. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --compare before.json after.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dsm"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 3

// rounds splits a run's measuring time. Per-round medians give the
// run's own spread; the calibration kernel opening each round tracks
// the host's speed.
const rounds = 5

// env is what every workload's set-up receives.
type env struct {
	root   string // repository root (holds testdata/)
	work   string // scratch directory of this run
	seed   int64
	nproc  int
	blocks [2]*dsm.Raster
	short  bool // smoke test: one set-up, fewer inputs
}

// workload is one set-up instance of a workload.
type workload interface {
	// layers adds the workload's per-layer metrics from a traced run
	// over tracedOps traced operations.
	layers(tr *tracer, tracedOps int, m metricSet)
	close()
}

// closedWorkload is driven by runClosed: one client that sends its next
// operation when the previous one returns.
type closedWorkload interface {
	workload
	// kind labels operation i (its input kind).
	kind(i int) string
	// op runs operation i and checks its output. oc carries the tracer
	// in traced rounds (a nil tracer otherwise).
	op(i int, oc *opCtx) error
}

// selfDriven is implemented by workloads that drive their own load
// shape instead.
type selfDriven interface {
	measure(seconds float64, trace bool, tr *tracer, hw *heapWatch) measured
}

// cleaner is implemented by workloads that release an operation's
// scratch state after it has been timed.
type cleaner interface {
	after()
}

// checker is implemented by workloads that verify some outputs after
// measuring (references too costly to compute for inputs never used).
type checker interface {
	check() (failed int, err error)
}

type workloadSpec struct {
	name  string
	setup func(e *env) (workload, error)
}

var workloads = []workloadSpec{
	{"table1", setupTable1},
	{"district_cold", func(e *env) (workload, error) { return setupDistrict(e, kindCold) }},
	{"district_local", func(e *env) (workload, error) { return setupDistrict(e, kindLocal) }},
	{"district_remote", func(e *env) (workload, error) { return setupDistrict(e, kindRemote) }},
	{"city", setupCity},
	{"serve", setupServe},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " has no unit")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: u}
}

// endToEnd lists the metrics printed without tracing, perLayer those
// printed with it. BENCHMARK.json names the same sets.
var endToEnd = []string{"setup_s", "p50_ms", "ops_per_s", "alloc_mb_per_op"}

var perLayer = []string{
	"ops", "tail_ms", "tail_pct", "round_spread_pct",
	"cpu_ms_per_op", "gc_per_op", "live_heap_mb", "trace_overhead_pct",
	"host.ref_ms", "host.ref_spread_pct",
	"district.extract_ms",
	"horizon.march_ms", "horizon.restore_ms", "horizon.marches_per_op",
	"field.sky_ms", "field.stats_ms", "field.stats_passes_per_op",
	"floorplan.suitability_ms", "floorplan.place_ms", "floorplan.evaluate_ms",
	"fieldcache.hit_ratio", "fieldcache.corrupt", "fieldcache.errors",
	"blobstore.local.read_ms", "blobstore.local.write_ms",
	"blobstore.remote.get_ms", "blobstore.remote.bytes_per_op",
	"gis.open_ms", "gis.window_ms", "gis.window_calls_per_op", "gis.block_hit_ratio", "gis.evictions_per_op",
	"pvfloor.tile_prep_ms", "pvfloor.roof_run_ms", "pvfloor.stitch_econ_ms", "pvfloor.encode_ms",
	"serve.run_res.p50_ms", "serve.run_roof.p50_ms", "serve.district.p50_ms", "serve.city.p50_ms",
	"serve.tiles.p50_ms", "serve.cold.p50_ms", "serve.district.first_event_ms",
	"serve.gen_late_p90_ms", "serve.rejected", "serve.queued_avg", "serve.running_avg",
}

var units = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "p50_ms": "ms", "ops_per_s": "1/s", "live_heap_mb": "MB",
		"ops": "count", "tail_ms": "ms", "tail_pct": "%", "round_spread_pct": "%",
		"cpu_ms_per_op": "ms/op", "alloc_mb_per_op": "MB/op", "gc_per_op": "1/op",
		"trace_overhead_pct": "%", "host.ref_ms": "ms", "host.ref_spread_pct": "%",
		"fieldcache.hit_ratio": "ratio", "fieldcache.corrupt": "count", "fieldcache.errors": "count",
		"blobstore.remote.bytes_per_op": "B/op", "gis.block_hit_ratio": "ratio",
		"serve.rejected": "count", "serve.queued_avg": "count", "serve.running_avg": "count",
	}
	for _, n := range perLayer {
		switch {
		case u[n] != "":
		case strings.HasSuffix(n, "_per_op"):
			u[n] = "1/op"
		case strings.HasPrefix(n, "serve."):
			u[n] = "ms"
		case strings.HasSuffix(n, "_ms"):
			u[n] = "ms/op"
		}
	}
	return u
}()

// measured is what a run's measuring phase produced.
type measured struct {
	lat        []float64 // untraced operation latencies, ms
	tracedLat  []float64
	roundP50   []float64 // per untraced round
	roundRate  []float64 // ops/s per untraced round
	refs       []float64 // calibration kernel, ms, per round
	attempted  int
	failed     int
	tracedOps  int
	rateOps    int     // operations counted for ops_per_s
	rateSecs   float64 // seconds they took
	cost       rtSnap  // runtime cost of the untraced operations
	costOps    int
	errSamples []string
}

func (m *measured) fail(err error) {
	m.failed++
	if len(m.errSamples) < 5 {
		m.errSamples = append(m.errSamples, err.Error())
	}
}

// runClosed drives w as one client that sends its next operation when
// the previous one returns.
func runClosed(w closedWorkload, seconds float64, trace bool, tr *tracer, hw *heapWatch) measured {
	var m measured
	roundDur := time.Duration(seconds / rounds * float64(time.Second))
	i := 0
	for r := 0; r < rounds; r++ {
		m.refs = append(m.refs, calibrate())
		traced := trace && r%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		hw.enable(!traced)
		var lat []float64
		snap := snapRuntime()
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < roundDur; n++ {
			oc := t.begin(i, w.kind(i))
			active.Store(oc)
			t0 := time.Now()
			err := w.op(i, oc)
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			oc.end(t0)
			active.Store(nil)
			if c, ok := w.(cleaner); ok {
				c.after()
			}
			i++
			m.attempted++
			if err != nil {
				m.fail(fmt.Errorf("op %d (%s): %w", i-1, w.kind(i-1), err))
				continue
			}
			lat = append(lat, ms)
		}
		elapsed := time.Since(start).Seconds()
		if traced {
			m.tracedLat = append(m.tracedLat, lat...)
			m.tracedOps += len(lat)
			continue
		}
		m.cost = m.cost.add(snapRuntime().sub(snap))
		m.costOps += len(lat)
		m.lat = append(m.lat, lat...)
		m.roundP50 = append(m.roundP50, median(lat))
		m.roundRate = append(m.roundRate, float64(len(lat))/elapsed)
		m.rateOps += len(lat)
		m.rateSecs += elapsed
	}
	hw.enable(false)
	return m
}

// result is the printed last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detail is one run as --out stores it and --compare reads it.
type detail struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// RateRPS is the serve workload's open-loop arrival rate.
	RateRPS float64              `json:"serve_rate_rps,omitempty"`
	Host    hostInfo             `json:"host"`
	Rounds  map[string][]float64 `json:"rounds"`
	Errors  []string             `json:"errors,omitempty"`
	// EndToEnd is set in traced runs too, from their untraced rounds.
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`
}

// result is what the run prints: the end-to-end metrics, or the
// per-layer ones of a traced run.
func (d *detail) result() result {
	r := result{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: d.EndToEnd}
	if d.Trace {
		r.Metrics = d.PerLayer
	}
	return r
}

type hostInfo struct {
	CPU   string  `json:"cpu"`
	NProc int     `json:"nproc"`
	Go    string  `json:"go"`
	RefMS float64 `json:"ref_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "1 = record spans and print per-layer metrics")
	out := fs.String("out", "", "append the detailed result to this JSON file")
	spans := fs.String("spans", "", "write the traced run's spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two --out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout)
	}
	spec, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	d, err := measure(spec, *seed, *seconds, *trace == 1, false, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, e := range d.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	if *out != "" {
		d.Host.CPU = cpuModel()
		if err := appendDetail(*out, d); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(d.result())
	fmt.Fprintln(stdout, string(line))
	if !d.Correct {
		return 1
	}
	return 0
}

// measure sets spec up setupReps times (once when short), measures the
// last instance and derives the metrics.
func measure(spec workloadSpec, seed int64, seconds float64, trace, short bool, spansPath string) (*detail, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// Keep every temporary file the program creates (inflated gzip
	// tiles, cache temp files) inside the run's scratch directory.
	prevTmp, hadTmp := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", work)
	defer func() {
		if hadTmp {
			os.Setenv("TMPDIR", prevTmp)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()

	blocks, err := loadBlocks(root)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if short {
		reps = 1
	}
	var setupS []float64
	var w workload
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			w.close()
		}
		e := &env{root: root, work: filepath.Join(work, fmt.Sprintf("setup%d", rep)),
			seed: seed, nproc: runtime.GOMAXPROCS(0), blocks: blocks, short: short}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		w, err = spec.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()
	runtime.GC()

	var tr *tracer
	if trace {
		tr = newTracer(spec.name)
	}
	hw := startHeapWatch()
	var m measured
	if sd, ok := w.(selfDriven); ok {
		m = sd.measure(seconds, trace, tr, hw)
	} else {
		m = runClosed(w.(closedWorkload), seconds, trace, tr, hw)
	}
	peakMB := hw.close()
	if c, ok := w.(checker); ok {
		failed, err := c.check()
		if err != nil {
			return nil, err
		}
		m.failed += failed
	}

	d := &detail{
		Workload: spec.name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: m.failed == 0 && m.attempted > 0, Attempted: m.attempted, Failed: m.failed,
		Host:   hostInfo{NProc: runtime.GOMAXPROCS(0), Go: runtime.Version(), RefMS: median(m.refs)},
		Errors: m.errSamples,
		Rounds: map[string][]float64{"setup_s": setupS, "p50_ms": m.roundP50, "ops_per_s": m.roundRate,
			"host.ref_ms": m.refs},
	}
	if spec.name == "serve" {
		d.RateRPS = serveRateRPS
	}
	ops := float64(max(m.costOps, 1))
	d.EndToEnd = metricSet{}
	d.EndToEnd.set("setup_s", median(setupS))
	d.EndToEnd.set("p50_ms", median(m.lat))
	d.EndToEnd.set("ops_per_s", float64(m.rateOps)/m.rateSecs)
	d.EndToEnd.set("alloc_mb_per_op", float64(m.cost.allocBytes)/(1<<20)/ops)
	if !trace {
		return d, nil
	}
	pl := metricSet{}
	d.PerLayer = pl
	for _, n := range perLayer {
		pl.set(n, 0)
	}
	tp, tv := tail(m.lat)
	pl.set("ops", float64(len(m.lat)))
	pl.set("tail_ms", tv)
	pl.set("tail_pct", tp)
	pl.set("round_spread_pct", 100*spread(m.roundP50))
	pl.set("cpu_ms_per_op", float64(m.cost.cpu)/float64(time.Millisecond)/ops)
	pl.set("live_heap_mb", peakMB)
	pl.set("gc_per_op", float64(m.cost.gcCycles)/ops)
	pl.set("trace_overhead_pct", 100*(median(m.tracedLat)/median(m.lat)-1))
	pl.set("host.ref_ms", median(m.refs))
	pl.set("host.ref_spread_pct", 100*spread(m.refs))
	w.layers(tr, max(m.tracedOps, 1), pl)
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// perOp sets name to the traced self time of span spanName per op.
func perOp(m metricSet, self map[string]float64, tracedOps int, name, spanName string) {
	m.set(name, self[spanName]/float64(tracedOps))
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// findRoot locates the repository root: the working directory or its
// parent (when run from bench/), whichever holds the district fixtures.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, blockFiles[0])); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root: " + blockFiles[0] + " not found")
}

// cpuModel names the host CPU for --out files.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// appendDetail adds d to the JSON array in path (created if absent).
func appendDetail(path string, d *detail) error {
	var all []*detail
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all = append(all, d)
	sort.SliceStable(all, func(a, b int) bool { return all[a].Workload < all[b].Workload })
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
