package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPercentileExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{75, 7.75},
		{25, 3.25},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	got, err := Percentile([]float64{42}, 75)
	if err != nil || got != 42 {
		t.Errorf("single sample percentile = %g, %v", got, err)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrNoSamples {
		t.Errorf("empty input: err = %v, want ErrNoSamples", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative percentile must error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 must error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("Percentile must not sort the caller's slice")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, err1 := Percentile(xs, pa)
		vb, err2 := Percentile(xs, pb)
		return err1 == nil && err2 == nil && va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("N/Min/Max wrong: %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2 (population)", s.StdDev)
	}
}

func TestSummarizeSkewness(t *testing.T) {
	// Right-skewed data (like irradiance: many small values, few
	// large) must have positive skewness; symmetric data near zero.
	right := []float64{0, 0, 0, 0, 1, 1, 2, 10}
	s, err := Summarize(right)
	if err != nil {
		t.Fatal(err)
	}
	if s.Skewness <= 0 {
		t.Errorf("right-skewed data skewness = %g, want > 0", s.Skewness)
	}
	sym := []float64{-3, -1, 0, 1, 3}
	s2, _ := Summarize(sym)
	if math.Abs(s2.Skewness) > 1e-9 {
		t.Errorf("symmetric data skewness = %g, want 0", s2.Skewness)
	}
	flat := []float64{5, 5, 5}
	s3, _ := Summarize(flat)
	if s3.Skewness != 0 || s3.StdDev != 0 {
		t.Errorf("constant data should have zero spread: %+v", s3)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}

func TestHistogramMatchesExactPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(0, 1400, 1400) // 1-unit bins, like the field evaluator
	var xs []float64
	for i := 0; i < 20000; i++ {
		// Skewed irradiance-like distribution: mostly zeros and low
		// values, occasionally high.
		var v float64
		if rng.Float64() < 0.5 {
			v = 0
		} else {
			v = 1200 * math.Pow(rng.Float64(), 2)
		}
		xs = append(xs, v)
		h.Add(v)
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		exact, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := h.Percentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 2.0 { // within two bin widths
			t.Errorf("p%g: exact=%g histogram=%g", p, exact, approx)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	h.Add(5)
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3 (clamped samples still counted)", h.N())
	}
	p0, _ := h.Percentile(0)
	p100, _ := h.Percentile(100)
	if p0 < 0 || p100 > 10 {
		t.Errorf("clamped percentiles escape the range: p0=%g p100=%g", p0, p100)
	}
}

func TestHistogramEmptyAndBadArgs(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if _, err := h.Percentile(50); err != ErrNoSamples {
		t.Errorf("empty histogram percentile err = %v", err)
	}
	if _, err := h.Mean(); err != ErrNoSamples {
		t.Errorf("empty histogram mean err = %v", err)
	}
	h.Add(1)
	if _, err := h.Percentile(-0.1); err == nil {
		t.Error("negative percentile must error")
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins":      func() { NewHistogram(0, 1, 0) },
		"inverted range": func() { NewHistogram(5, 1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramMeanAndReset(t *testing.T) {
	h := NewHistogram(0, 100, 200) // 0.5-wide bins
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	m, err := h.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-49.5) > 0.5 {
		t.Errorf("Mean = %g, want ~49.5", m)
	}
	h.Reset()
	if h.N() != 0 {
		t.Error("Reset should clear the sample count")
	}
	if _, err := h.Mean(); err != ErrNoSamples {
		t.Error("Reset histogram should report ErrNoSamples")
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, a, b uint8) bool {
		h := NewHistogram(0, 1400, 350)
		for _, v := range vals {
			h.Add(float64(v % 1400))
		}
		if h.N() == 0 {
			return true
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, err1 := h.Percentile(pa)
		vb, err2 := h.Percentile(pb)
		return err1 == nil && err2 == nil && va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileOfCountsMatchesHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 50)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		h.Add(rng.Float64() * 110) // exercise the clamped tails too
	}
	for _, p := range []float64{0, 10, 50, 75, 90, 100} {
		want, err := h.Percentile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PercentileOfCounts(h.Counts(), h.N(), 0, 100, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("PercentileOfCounts(%g) = %v, histogram %v", p, got, want)
		}
	}
	if _, err := PercentileOfCounts(h.Counts(), 0, 0, 100, 50); err == nil {
		t.Error("zero-sample percentile must error")
	}
	if _, err := PercentileOfCounts(h.Counts(), h.N(), 0, 100, 101); err == nil {
		t.Error("out-of-range percentile must error")
	}
}

func TestBinningMatchesHistogramAdd(t *testing.T) {
	const lo, hi, bins = -30.0, 105.0, 360
	b := NewBinning(lo, hi, bins)
	h := NewHistogram(lo, hi, bins)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		v := lo - 10 + rng.Float64()*(hi-lo+20)
		h.Add(v)
		idx := b.Index(v)
		if idx < 0 || idx >= bins {
			t.Fatalf("Index(%g) = %d out of range", v, idx)
		}
	}
	// Rebuild the histogram through Binning and compare counts.
	manual := make([]uint32, bins)
	rng = rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		v := lo - 10 + rng.Float64()*(hi-lo+20)
		manual[b.Index(v)]++
	}
	for i, c := range h.Counts() {
		if manual[i] != c {
			t.Fatalf("bin %d: Binning count %d vs Histogram count %d", i, manual[i], c)
		}
	}
}
