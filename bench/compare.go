package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json --compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict classifies one metric's change from a to b. delta is the
// relative change of the median, signed so that positive is worse.
// A change whose either side's spread exceeds the bound cannot be told
// from noise and is unresolved.
func verdict(delta, spreadA, spreadB, bound float64) string {
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case delta > bound:
		return "regressed"
	case delta < -bound:
		return "improved"
	default:
		return "ok"
	}
}

// runCompare prints one row per workload and end-to-end metric of two
// --out files and exits 1 when any metric regressed.
func runCompare(pathA, pathB string, out io.Writer) int {
	a, err := readDetails(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readDetails(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var spec benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading BENCHMARK.json:", err)
		return 2
	}
	return compareDetails(a, b, spec, out)
}

// readDetails groups the untraced runs of an --out file by workload.
func readDetails(path string) (map[string][]*detail, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*detail
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*detail{}
	for _, d := range all {
		if !d.Trace {
			out[d.Workload] = append(out[d.Workload], d)
		}
	}
	return out, nil
}

// sample is what one side of a comparison knows about a metric: the
// per-run values when the file holds several runs of the workload,
// otherwise the single run's value and its per-round values.
func sample(runs []*detail, metric string) (value float64, spreadOf []float64) {
	if len(runs) == 1 {
		v := runs[0].EndToEnd[metric].Value
		if rounds := runs[0].Rounds[metric]; len(rounds) > 0 {
			return v, rounds
		}
		return v, []float64{v}
	}
	var vs []float64
	for _, d := range runs {
		vs = append(vs, d.EndToEnd[metric].Value)
	}
	return median(vs), vs
}

func compareDetails(a, b map[string][]*detail, spec benchmarkFile, out io.Writer) int {
	code := 0
	warned := false
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns a\truns b\tmedian a\tmedian b\tq1-q3 a\tq1-q3 b\tdelta\tverdict")
	for _, s := range workloads {
		ra, rb := a[s.name], b[s.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if w := hostWarning(hostOf(ra), hostOf(rb)); w != "" && !warned {
			fmt.Fprintf(out, "WARNING: %s: the two files come from different hosts, so deltas may not be the program's\n", w)
			warned = true
		}
		for _, e := range spec.EndToEnd {
			va, sa := sample(ra, e.Name)
			vb, sb := sample(rb, e.Name)
			delta := 0.0
			if va != 0 {
				delta = (vb - va) / math.Abs(va)
			}
			if e.Better == "higher" {
				delta = -delta
			}
			v := verdict(delta, spread(sa), spread(sb), e.Bound)
			if v == "regressed" {
				code = 1
			}
			a1, a3 := quartiles(sa)
			b1, b3 := quartiles(sb)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4g\t%.4g\t%.4g-%.4g\t%.4g-%.4g\t%+.1f%%\t%s\n",
				s.name, e.Name, len(ra), len(rb), va, vb, a1, a3, b1, b3, 100*delta, v)
		}
	}
	tw.Flush()
	return code
}

// hostOf summarises the hosts of a workload's runs: the first run's
// description with the median calibration time over all runs.
func hostOf(runs []*detail) hostInfo {
	h := runs[0].Host
	var refs []float64
	for _, d := range runs {
		refs = append(refs, d.Host.RefMS)
	}
	h.RefMS = median(refs)
	return h
}

// hostWarning names what differs between two hosts, or returns "".
func hostWarning(a, b hostInfo) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("CPU model differs (%q vs %q)", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc differs (%d vs %d)", a.NProc, b.NProc)
	case a.Go != b.Go:
		return fmt.Sprintf("Go version differs (%s vs %s)", a.Go, b.Go)
	case a.RefMS > 0 && math.Abs(b.RefMS-a.RefMS)/a.RefMS > 0.10:
		return fmt.Sprintf("host.ref_ms differs by more than 10%% (%.2f vs %.2f ms)", a.RefMS, b.RefMS)
	}
	return ""
}
