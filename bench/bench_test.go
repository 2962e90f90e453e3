package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, // rank 90, 10 beyond
		{99, 90, false}, // rank 90, 9 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{19, 50, false}, // rank 10, 9 beyond
		{1000, 99, true},
		{999, 99, false},
		{0, 50, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 75 || v != 38 {
		t.Errorf("tail of 50 samples = p%g %g, want p75 38", p, v)
	}
	if p, v := tail(xs[:15]); p != 50 || v != 8 {
		t.Errorf("tail of 15 samples = p%g %g, want the median fallback p50 8", p, v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs[:10])
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestSeedDeterminism(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := loadBlocks(root)
	if err != nil {
		t.Fatal(err)
	}
	inputs := func(seed int64) (tiles [][]byte, city []byte, sched []time.Duration, order []int) {
		for _, spec := range districtPool(seed) {
			b, err := ascBytes(makeTile(blocks, spec), false)
			if err != nil {
				t.Fatal(err)
			}
			tiles = append(tiles, b)
		}
		city, err := ascBytes(makeCity(blocks, makeCitySpec(seed)), true)
		if err != nil {
			t.Fatal(err)
		}
		sched = poisson(rng(seed, streamArrivals), serveRateRPS, 50)
		order = cycleOrder(rng(seed, streamOrder), 6, 60)
		return tiles, city, sched, order
	}
	t1, c1, s1, o1 := inputs(1)
	t1b, c1b, s1b, o1b := inputs(1)
	if !reflect.DeepEqual(t1, t1b) || !bytes.Equal(c1, c1b) || !reflect.DeepEqual(s1, s1b) || !reflect.DeepEqual(o1, o1b) {
		t.Fatal("the same seed generated different inputs")
	}
	t2, c2, s2, o2 := inputs(2)
	if !bytes.Equal(t1[0], t2[0]) {
		t.Error("pool slot 0 must be the unmodified fixture for every seed")
	}
	for i := 1; i < len(t1); i++ {
		if bytes.Equal(t1[i], t2[i]) {
			t.Errorf("pool slot %d is identical for seeds 1 and 2", i)
		}
	}
	if bytes.Equal(c1, c2) || reflect.DeepEqual(s1, s2) || reflect.DeepEqual(o1, o2) {
		t.Error("seeds 1 and 2 generated the same city, schedule or order")
	}
	// Every (block, flip) pair appears exactly once in the pool.
	seen := map[[2]int]bool{}
	for _, spec := range districtPool(7) {
		seen[[2]int{spec.Block, spec.Flip}] = true
	}
	if len(seen) != poolSize {
		t.Errorf("pool covers %d (block, flip) pairs, want %d", len(seen), poolSize)
	}
}

// TestOpenLoopStall checks the open-loop accounting: a handler that
// stalls holds back the requests due behind it, and their latency —
// measured from when they were due — and the generator's lateness both
// show the stall.
func TestOpenLoopStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer hs.Close()
	send := func(int) (time.Time, error) {
		resp, err := hs.Client().Get(hs.URL)
		if err != nil {
			return time.Time{}, err
		}
		resp.Body.Close()
		return time.Now(), nil
	}
	dues := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	var k atomic.Int64
	out := openLoop(time.Now(), dues, 1, func() int { return int(k.Add(1) - 1) }, send)
	if out[0].lateMS() > 50 {
		t.Errorf("first request sent %.0f ms late, want on time", out[0].lateMS())
	}
	for i, o := range out[1:] {
		waited := ms(stall - dues[i+1])
		if o.lateMS() < waited-20 || o.latencyMS() < waited-20 {
			t.Errorf("request %d: late %.0f ms, latency %.0f ms; want both >= ~%.0f ms (the stall ahead of it)",
				i+1, o.lateMS(), o.latencyMS(), waited)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		delta, sa, sb, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.01, 0.10, "ok"},
		{0.15, 0.01, 0.01, 0.10, "regressed"},
		{-0.15, 0.01, 0.01, 0.10, "improved"},
		{0.15, 0.20, 0.01, 0.10, "unresolved"},
		{0.02, 0.01, 0.12, 0.10, "unresolved"},
	} {
		if got := verdict(c.delta, c.sa, c.sb, c.bound); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c, got, c.want)
		}
	}

	spec := benchmarkFile{EndToEnd: []boundSpec{{Name: "p50_ms", Better: "lower", Bound: 0.10}}}
	run := func(p50 float64, cpu string) *detail {
		d := &detail{Workload: "table1", Host: hostInfo{CPU: cpu, NProc: 2, Go: "go1.24", RefMS: 20},
			Rounds: map[string][]float64{"p50_ms": {p50, p50, p50}}}
		d.EndToEnd = metricSet{"p50_ms": {Value: p50, Unit: "ms"}}
		return d
	}
	one := func(p50 float64, cpu string) map[string][]*detail {
		return map[string][]*detail{"table1": {run(p50, cpu)}}
	}
	var out bytes.Buffer
	if code := compareDetails(one(100, "A"), one(103, "A"), spec, &out); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("+3%% within a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareDetails(one(100, "A"), one(130, "B"), spec, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("+30%%: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "WARNING: CPU model differs") {
		t.Errorf("no warning for different CPU models:\n%s", out.String())
	}
	// Several runs per side: the median over runs is compared, and
	// their spread decides whether the change is resolved.
	out.Reset()
	noisy := map[string][]*detail{"table1": {run(80, "A"), run(100, "A"), run(120, "A"), run(140, "A")}}
	if code := compareDetails(one(100, "A"), noisy, spec, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("runs spread over +-20%%: exit %d, want 0 and unresolved\n%s", code, out.String())
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// workloads and metrics the program prints, with the same units.
func TestBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, set := range []struct {
		got  []entry
		want []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.got) != len(set.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(set.got), len(set.want))
			continue
		}
		for i, e := range set.got {
			if e.Name != set.want[i] || e.Unit != units[e.Name] {
				t.Errorf("BENCHMARK.json metric %d is %s in %s, program prints %s in %s",
					i, e.Name, e.Unit, set.want[i], units[set.want[i]])
			}
		}
	}
}

// TestSmoke runs every workload for about a second with tracing, which
// alternates untraced and traced rounds, and requires every operation
// of both kinds to match its reference and every metric to be set.
// Serve runs for three seconds, so its untraced open-loop phases
// surely hold requests of the class its p50_ms times.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		seconds := 1.0
		if spec.name == "serve" {
			seconds = 3
		}
		d, err := measure(spec, 1, seconds, true, true, "")
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v",
				spec.name, d.Correct, d.Attempted, d.Failed, d.Errors)
		}
		for _, set := range []struct {
			got  metricSet
			want []string
		}{{d.EndToEnd, endToEnd}, {d.PerLayer, perLayer}} {
			if len(set.got) != len(set.want) {
				t.Errorf("%s: %d metrics, want %d", spec.name, len(set.got), len(set.want))
			}
			for _, n := range set.want {
				if _, ok := set.got[n]; !ok {
					t.Errorf("%s: metric %s missing", spec.name, n)
				}
			}
		}
		if v := d.EndToEnd["p50_ms"].Value; v <= 0 {
			t.Errorf("%s: p50_ms = %g, want > 0", spec.name, v)
		}
	}
}
