package bench

import (
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := Median(c.xs); m != c.q2 {
			t.Errorf("Median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if Median(nil) != 0 {
		t.Error("Median of no values is not 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := Percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same runs", tight, tight, "lower", Same},
		{"slower beyond the bound", tight, scale(tight, 1.3), "lower", Worse},
		{"faster beyond the bound", tight, scale(tight, 0.7), "lower", Better},
		{"throughput up", tight, scale(tight, 1.3), "higher", Better},
		{"throughput down", tight, scale(tight, 0.7), "higher", Worse},
		{"apart but within the bound", tight, scale(tight, 1.05), "lower", Same},
		{"spread wider than the bound", wide, scale(wide, 1.05), "lower", Unresolved},
		{"medians apart, ranges overlap", wide, scale(wide, 1.2), "lower", Unresolved},
	}
	for _, c := range cases {
		if got := Judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: Judge = %q, want %q", c.name, got, c.want)
		}
	}
}
