package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},  // ranks 91..100 lie beyond: exactly ten
		{99, 0.9, 0, false},   // nine beyond
		{100, 0.99, 0, false}, // one beyond
		{1000, 0.99, 990, true},
		{1050, 0.99, 1040, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("percentile(n=%d, q=%g) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	if q, v := tail(seq(1000)); q != 0.95 || v != 950 {
		t.Errorf("tail(1000) = p%g %v, want p95 950", q*100, v)
	}
	if q, v := tail(seq(200)); q != 0.95 || v != 190 {
		t.Errorf("tail(200) = p%g %v, want p95 190", q*100, v)
	}
	if q, v := tail(seq(199)); q != 0.5 || v != median(seq(199)) {
		t.Errorf("tail(199) = p%g %v, want the median: nine samples lie beyond p95", q*100, v)
	}
}

func TestDescribeListsSupportedPercentiles(t *testing.T) {
	if got, want := describe(seq(200)), "n=200 p50=100.500 ms p95=190.000 ms"; got != want {
		t.Errorf("describe(200) = %q, want %q", got, want)
	}
	if got, want := describe(seq(1000)), "n=1000 p50=500.500 ms p95=950.000 ms p99=990.000 ms"; got != want {
		t.Errorf("describe(1000) = %q, want %q", got, want)
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}
