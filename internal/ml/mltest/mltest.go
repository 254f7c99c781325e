// Package mltest provides shared synthetic datasets for classifier tests:
// separable Gaussian blobs, overlapping blobs, XOR (non-linearly
// separable) problems and random problems for differential tests, all
// deterministic in a seed, plus a bit-exact comparison of weights.
package mltest

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Blobs generates n points per class around class-specific centers with
// the given noise stddev. Returns features and labels.
func Blobs(seed uint64, centers [][]float64, n int, noise float64) (x [][]float64, y []int) {
	src := rng.New(seed)
	dim := len(centers[0])
	for c, center := range centers {
		for i := 0; i < n; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = center[j] + src.Normal(0, noise)
			}
			x = append(x, row)
			y = append(y, c)
		}
	}
	// Shuffle jointly so classes interleave.
	src.Shuffle(len(x), func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
	return x, y
}

// TwoBlobs is a binary, well-separated 2-D problem.
func TwoBlobs(seed uint64, n int) ([][]float64, []int) {
	return Blobs(seed, [][]float64{{0, 0}, {4, 4}}, n, 0.7)
}

// ThreeBlobs is a 3-class, 4-D problem with moderate overlap.
func ThreeBlobs(seed uint64, n int) ([][]float64, []int) {
	return Blobs(seed, [][]float64{
		{0, 0, 0, 0},
		{3, 3, 0, 0},
		{0, 3, 3, 1},
	}, n, 1.0)
}

// XOR is the classic non-linearly-separable binary problem: four Gaussian
// clusters at square corners, diagonal corners sharing a label.
func XOR(seed uint64, n int) ([][]float64, []int) {
	src := rng.New(seed)
	var x [][]float64
	var y []int
	corners := [][3]float64{
		{0, 0, 0}, {4, 4, 0}, // class 0
		{0, 4, 1}, {4, 0, 1}, // class 1
	}
	for _, c := range corners {
		for i := 0; i < n; i++ {
			x = append(x, []float64{c[0] + src.Normal(0, 0.5), c[1] + src.Normal(0, 0.5)})
			y = append(y, int(c[2]))
		}
	}
	src.Shuffle(len(x), func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
	return x, y
}

// Accuracy computes the fraction of correct predictions of predict over
// the given set.
func Accuracy(predict func([]float64) int, x [][]float64, y []int) float64 {
	correct := 0
	for i := range x {
		if predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// SplitHalf splits a dataset into two halves (train/test).
func SplitHalf(x [][]float64, y []int) (xa [][]float64, ya []int, xb [][]float64, yb []int) {
	h := len(x) / 2
	return x[:h], y[:h], x[h:], y[h:]
}

// Random draws n rows of a dim-feature, k-class problem for differential
// tests: each class has its own center, each feature its own scale
// between 1e-3 and 1e6, about one feature in eight is constant, and the
// labels cover every class when n >= k.
func Random(src *rng.Source, n, dim, k int) (x [][]float64, y []int) {
	scale := make([]float64, dim)
	for j := range scale {
		scale[j] = math.Pow(10, src.Range(-3, 6))
		if src.Bool(0.125) {
			scale[j] = 0
		}
	}
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = src.Normal(0, 2) * scale[j]
		}
	}
	for i := 0; i < n; i++ {
		c := i % k
		if i >= k {
			c = src.Intn(k)
		}
		row := make([]float64, dim)
		for j := range row {
			row[j] = centers[c][j] + src.Normal(0, 1)*scale[j]
		}
		x = append(x, row)
		y = append(y, c)
	}
	return x, y
}

// SameBits fails t unless got and want have the same shape and every
// element has the same float64 bit pattern (so -0 differs from +0 and a
// NaN matches only the same NaN).
func SameBits(t testing.TB, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: row %d has %d columns, want %d", what, r, len(got[r]), len(want[r]))
		}
		for c, w := range want[r] {
			if g := got[r][c]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: [%d][%d] = %v (%#x), want %v (%#x)",
					what, r, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// Tricky draws n rows of a dim-feature, k-class problem whose values tie
// often and include NaN, +Inf, -Inf and -0, for differential tests of
// learners that sort or compare feature values. Labels are uniform.
func Tricky(src *rng.Source, n, dim, k int) (x [][]float64, y []int) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	pool := make([]float64, 3+src.Intn(6)) // few distinct values: many ties
	for i := range pool {
		pool[i] = math.Round(src.Normal(0, 4)*4) / 4
	}
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			switch u := src.Float64(); {
			case u < 0.15:
				row[j] = special[src.Intn(len(special))]
			case u < 0.6:
				row[j] = pool[src.Intn(len(pool))]
			default:
				row[j] = src.Normal(0, 4)
			}
		}
		x = append(x, row)
		y = append(y, src.Intn(k))
	}
	return x, y
}
