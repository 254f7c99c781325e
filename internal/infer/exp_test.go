package infer

import (
	"math"
	"math/rand"
	"testing"
)

// TestExp4MatchesMathExp pins exp4 bit-identical to math.Exp across a
// dense sweep of the sigmoid argument range, the overflow/underflow
// boundaries, and every special value. Bit-equality of the compiled
// MLP kernel rests on this.
func TestExp4MatchesMathExp(t *testing.T) {
	check := func(x0, x1, x2, x3 float64) {
		t.Helper()
		var e [4]float64
		exp4(&e, x0, x1, x2, x3)
		for i, x := range [4]float64{x0, x1, x2, x3} {
			want := math.Exp(x)
			if math.Float64bits(e[i]) != math.Float64bits(want) {
				t.Fatalf("exp4 lane %d: Exp(%g) = %x, want %x (mode %d)",
					i, x, math.Float64bits(e[i]), math.Float64bits(want), expMode)
			}
		}
	}
	// Dense over [-64, 64), the range sigmoid arguments live in.
	for i := 0; i < 1<<16; i += 4 {
		f := func(j int) float64 { return -64 + float64(j)*(128.0/(1<<16)) }
		check(f(i), f(i+1), f(i+2), f(i+3))
	}
	// Log-spaced out to both tails, past the fast-path bounds.
	for x := 1e-308; x < 1e4; x *= 1.37 {
		check(x, -x, x*0.317, -x*0.713)
	}
	// Boundaries and specials, including mixed fast/slow lanes.
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1,
		expOver, math.Nextafter(expOver, 1000), -expOver,
		expLo, math.Nextafter(expLo, -1000), math.Nextafter(expLo, 0),
		-745.2, -744.9, 709.7, 710.0,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, a := range specials {
		check(a, a, a, a)
		check(a, 0.5, -0.5, a)
	}
}

// TestExpProbePicksReplay documents that on platforms whose math.Exp
// the replay covers (amd64), the probe selects an interleaved mode
// rather than the math.Exp fallback. Skipped elsewhere: exp4 is still
// correct there, just not accelerated.
func TestExpProbePicksReplay(t *testing.T) {
	if expMode == expModeNone {
		t.Skip("no bit-identical replay for this architecture's math.Exp")
	}
	if expProbe(expMode) != true {
		t.Fatalf("probe no longer matches selected mode %d", expMode)
	}
}

// TestSoftmaxMatchesReference requires softmax, whose max class skips
// its exp, to equal the reference that exponentiates every class, bit for
// bit: on ties for the max, on NaN, ±Inf and -0 logits, on rows of one
// class and on random logits of every width the kernels produce.
func TestSoftmaxMatchesReference(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	rows := [][]float64{
		{0}, {negZero}, {5}, {nan}, {inf}, {-inf},
		{0, 0}, {negZero, 0}, {0, negZero}, {negZero, negZero},
		{3, 3}, {3, 3, 3}, {1, 3, 3}, {3, 1, 3},
		{nan, 1}, {1, nan}, {nan, nan},
		{inf, 1}, {1, inf}, {inf, inf}, {-inf, -inf}, {-inf, 0}, {inf, -inf},
		{math.MaxFloat64, -math.MaxFloat64}, {-math.MaxFloat64, -math.MaxFloat64},
		{1e-300, 0}, {-745.2, 0}, {709.8, 0}, {math.SmallestNonzeroFloat64, negZero},
	}
	src := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		row := make([]float64, 1+src.Intn(8))
		for c := range row {
			row[c] = src.NormFloat64() * math.Pow(10, float64(src.Intn(6)-2))
		}
		if src.Intn(4) == 0 { // a tie for the max
			row[src.Intn(len(row))] = row[src.Intn(len(row))]
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		got, want := append([]float64{}, row...), append([]float64{}, row...)
		softmax(got)
		refSoftmax(want)
		for c := range got {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("softmax(%v)[%d] = %v (%x), reference %v (%x)",
					row, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
}

// expSink keeps the benchmarked exponentials live.
var expSink float64

// benchExp times fill on four arguments at a time, drawn from the
// range the MLP's hidden-layer sigmoids feed exp4. An op is four
// exponentials.
func benchExp(b *testing.B, fill func(e *[4]float64, x0, x1, x2, x3 float64)) {
	src := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.NormFloat64() * 8
	}
	var e [4]float64
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i * 4 & (len(xs) - 1)
		fill(&e, xs[j], xs[j+1], xs[j+2], xs[j+3])
		sum += e[0] + e[1] + e[2] + e[3]
	}
	expSink = sum
}

// BenchmarkExp4 times exp4, which interleaves the four evaluations.
func BenchmarkExp4(b *testing.B) { benchExp(b, exp4) }

// BenchmarkMathExp4 times four math.Exp calls, the fallback exp4 takes
// where no replay of math.Exp matches.
func BenchmarkMathExp4(b *testing.B) {
	benchExp(b, func(e *[4]float64, x0, x1, x2, x3 float64) {
		e[0], e[1], e[2], e[3] = math.Exp(x0), math.Exp(x1), math.Exp(x2), math.Exp(x3)
	})
}
