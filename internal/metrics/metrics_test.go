package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := Percentile(v, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(v, 1); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(v, 0.5); got != 3 {
		t.Fatalf("p50 = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile not NaN")
	}
	// Input must not be mutated.
	if v[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

// TestPercentileInterpolation pins the linear-interpolation contract
// (index q·(n−1), fractional part blends the bracketing ranks) so it
// cannot silently drift to nearest-rank: the chaos/fuzz baselines depend
// on these exact values.
func TestPercentileInterpolation(t *testing.T) {
	cases := []struct {
		values []float64
		q      float64
		want   float64
	}{
		{[]float64{0, 10}, 0.25, 2.5},       // idx 0.25: 0·0.75 + 10·0.25
		{[]float64{0, 10}, 0.5, 5},          // exact midpoint
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},   // even n: blend of middle pair
		{[]float64{1, 2, 3, 4}, 0.95, 3.85}, // idx 2.85: 3·0.15 + 4·0.85
		{[]float64{10, 20, 30}, 0.75, 25},   // idx 1.5
		{[]float64{7}, 0.5, 7},              // single element at any q
		// Nearest-rank would give 4 here; interpolation must not.
		{[]float64{1, 2, 3, 4, 5}, 0.7, 3.8}, // idx 2.8: 3·0.2 + 4·0.8
	}
	for _, c := range cases {
		if got := Percentile(c.values, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v, %g) = %g, want %g", c.values, c.q, got, c.want)
		}
	}
}

func TestPercentileShorthands(t *testing.T) {
	// 101 values 0..100: interpolation lands exactly on integers, so the
	// shorthands must agree with the named ranks.
	v := make([]float64, 101)
	for i := range v {
		v[i] = float64(100 - i) // reversed: order must not matter
	}
	if got := P50(v); got != 50 {
		t.Fatalf("P50 = %g, want 50", got)
	}
	if got := P95(v); got != 95 {
		t.Fatalf("P95 = %g, want 95", got)
	}
	if got := P99(v); got != 99 {
		t.Fatalf("P99 = %g, want 99", got)
	}
	for _, f := range []func([]float64) float64{P50, P95, P99} {
		if !math.IsNaN(f(nil)) {
			t.Fatal("empty shorthand percentile not NaN")
		}
	}
	// Tail ordering: P50 ≤ P95 ≤ P99 on any input with spread.
	w := []float64{1, 1, 2, 3, 100}
	if !(P50(w) <= P95(w) && P95(w) <= P99(w)) {
		t.Fatalf("percentile ordering violated: p50=%g p95=%g p99=%g", P50(w), P95(w), P99(w))
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean not NaN")
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(100, 75); got != 25 {
		t.Fatalf("Reduction = %g, want 25", got)
	}
	if got := Reduction(100, 120); got != -20 {
		t.Fatalf("Reduction = %g, want -20", got)
	}
	if got := Reduction(0, 5); got != 0 {
		t.Fatalf("Reduction with zero base = %g, want 0", got)
	}
}

func TestSlowdown(t *testing.T) {
	cases := []struct {
		name          string
		clean, faulty float64
		want          float64
	}{
		{"faster than clean", 10, 5, 0.5},
		{"unaffected", 10, 10, 1},
		{"2.5x slower", 10, 25, 2.5},
		{"zero clean, nonzero faulty", 0, 5, math.Inf(1)},
		{"both zero", 0, 0, 1},
		{"zero faulty", 10, 0, 0},
	}
	for _, c := range cases {
		//corralvet:ok floateq exact identity intended: Slowdown's table values, including +Inf, are exactly representable
		if got := Slowdown(c.clean, c.faulty); got != c.want {
			t.Errorf("%s: Slowdown(%g, %g) = %g, want %g",
				c.name, c.clean, c.faulty, got, c.want)
		}
	}
	// The chaos/fuzz report tables format the value with F; an infinite
	// slowdown must render, not panic or print a bogus finite number.
	if got := F(Slowdown(0, 5), 2); got != "+Inf" {
		t.Errorf("F(Slowdown(0, 5), 2) = %q, want \"+Inf\"", got)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("uniform CoV = %g", got)
	}
	got := CoV([]float64{0, 10})
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("CoV = %g, want 1", got)
	}
	if CoV(nil) != 0 {
		t.Fatal("empty CoV != 0")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 4}, 4)
	if len(pts) != 4 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	want := []float64{1, 2, 3, 4}
	for i, p := range pts {
		//corralvet:ok floateq exact identity intended: CDF values are the input samples themselves
		if p.Value != want[i] {
			t.Fatalf("CDF[%d] = %+v, want value %g", i, p, want[i])
		}
		//corralvet:ok floateq exact identity intended: i/4 fractions are exact in binary floating point
		if p.Fraction != float64(i+1)/4 {
			t.Fatalf("CDF[%d] fraction = %g", i, p.Fraction)
		}
	}
	if CDF(nil, 4) != nil {
		t.Fatal("empty CDF not nil")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", F(1.5, 2))
	tb.AddRow("b", Pct(33.3333))
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "1.50") || !strings.Contains(s, "33.3%") {
		t.Fatalf("missing cells in:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4", len(lines))
	}
}

// Property: percentile is monotone in q and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var v []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			p := Percentile(v, q)
			if p < prev-1e-9 || p < sorted[0] || p > sorted[len(sorted)-1] {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF values are nondecreasing and end at the max.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var v []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		pts := CDF(v, 10)
		prev := math.Inf(-1)
		for _, p := range pts {
			if p.Value < prev {
				return false
			}
			prev = p.Value
		}
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		//corralvet:ok floateq exact identity intended: the CDF's last value is the largest input sample itself
		return pts[len(pts)-1].Value == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
