package infer

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/mltest"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
	"repro/internal/rng"
)

// quantFactories builds the hardware-capped model set — the exact
// configurations the core registry deploys (OneR interval cap, JRip rule
// cap, tree depth/leaf caps, NB log transform). The caps are what make
// the models representable in fixed-point: an uncapped OneR memorizing
// thousands of thresholds has no hardware (or int8) realization.
func quantFactories() map[string]func() ml.Classifier {
	return map[string]func() ml.Classifier{
		"OneR": func() ml.Classifier { o := oner.New(); o.MaxIntervals = 16; return o },
		"JRip": func() ml.Classifier { j := rules.New(); j.Seed = 1; j.MaxRulesPerClass = 8; return j },
		"J48":  func() ml.Classifier { j := tree.NewJ48(); j.MinLeaf = 50; j.MaxDepth = 12; return j },
		"REPTree": func() ml.Classifier {
			r := tree.NewREPTree()
			r.Seed = 1
			r.MinLeaf = 50
			r.MaxDepth = 12
			return r
		},
		"NaiveBayes": func() ml.Classifier { nb := bayes.New(); nb.LogTransform = true; return nb },
		"Logistic":   func() ml.Classifier { lg := linear.NewLogistic(); lg.Seed = 1; return lg },
		"SVM":        func() ml.Classifier { s := linear.NewSVM(); s.Seed = 1; return s },
		"MLP":        func() ml.Classifier { m := mlp.New(); m.Seed = 1; return m },
	}
}

// quantBench holds the 30k-row six-class workload (the bench workload)
// with every capped model trained once, shared across the quant tests.
var quantBench struct {
	once   sync.Once
	x      [][]float64
	y      []int
	models map[string]ml.Classifier
}

func quantSetup(t testing.TB) {
	t.Helper()
	quantBench.once.Do(func() {
		centers := [][]float64{
			{0, 0, 0, 0, 1, 2, 0, 1},
			{2, 1, 0, 1, 0, 0, 2, 0},
			{0, 2, 2, 0, 1, 0, 1, 2},
			{1, 0, 1, 2, 2, 1, 0, 0},
			{2, 2, 1, 1, 0, 2, 2, 1},
			{1, 1, 2, 0, 2, 0, 1, 2},
		}
		quantBench.x, quantBench.y = mltest.Blobs(1, centers, 5000, 2.0)
		quantBench.models = map[string]ml.Classifier{}
		for n, mk := range quantFactories() {
			c := mk()
			if err := c.Train(quantBench.x, quantBench.y, 6); err != nil {
				panic(err)
			}
			quantBench.models[n] = c
		}
	})
}

// TestQuantAgreement pins the headline acceptance bar: every classifier,
// quantized at int8 and int16 with the training set as calibration,
// agrees with its float64 program on at least 99% of the 30k-row bench
// workload. The rank-coded comparison kernels must agree exactly.
func TestQuantAgreement(t *testing.T) {
	quantSetup(t)
	exact := map[string]bool{"OneR": true, "JRip": true, "J48": true, "REPTree": true}
	for _, prec := range []Precision{Int8, Int16} {
		for name, c := range quantBench.models {
			t.Run(prec.String()+"/"+name, func(t *testing.T) {
				fp, err := Compile(c)
				if err != nil {
					t.Fatalf("float compile: %v", err)
				}
				qp, err := Compile(c, WithPrecision(prec), WithCalibration(quantBench.x))
				if err != nil {
					t.Fatalf("quant compile: %v", err)
				}
				fDst := make([]int, len(quantBench.x))
				qDst := make([]int, len(quantBench.x))
				if err := fp.Predict(fDst, quantBench.x); err != nil {
					t.Fatal(err)
				}
				if err := qp.Predict(qDst, quantBench.x); err != nil {
					t.Fatal(err)
				}
				agree := 0
				for i := range fDst {
					if fDst[i] == qDst[i] {
						agree++
					}
				}
				rate := float64(agree) / float64(len(fDst))
				if rate < 0.99 {
					t.Fatalf("agreement %.4f < 0.99", rate)
				}
				if exact[name] && rate != 1 {
					t.Fatalf("rank-coded %s agreement %.6f, want exactly 1", name, rate)
				}
				// The compile-time measured agreement saw the same rows.
				if got := qp.Spec().Agreement; math.Abs(got-rate) > 1e-12 {
					t.Fatalf("Spec().Agreement = %.6f, measured %.6f", got, rate)
				}
				// PredictOne rides the same kernel and scratch arena.
				for i := 0; i < 64; i++ {
					one, err := qp.PredictOne(quantBench.x[i*97%len(quantBench.x)])
					if err != nil {
						t.Fatal(err)
					}
					if one != qDst[i*97%len(quantBench.x)] {
						t.Fatalf("PredictOne row %d disagrees with batch", i*97%len(quantBench.x))
					}
				}
			})
		}
	}
}

// TestQuantRoundTrip is the satellite property test: for every feature,
// quantize→dequantize lands exactly on the affine grid (an integer
// multiple of step from zero, within 1 ULP), and re-quantizing the
// dequantized value returns the same code — the grid is a fixed point of
// the round trip.
func TestQuantRoundTrip(t *testing.T) {
	quantSetup(t)
	for _, prec := range []Precision{Int8, Int16} {
		half := prec.half()
		q, err := calibrateAffine(quantBench.x, len(quantBench.x[0]), half, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range quantBench.x[:2000] {
			for j, v := range row {
				code := q.quantize(j, v)
				if int64(code) > half || int64(code) < -half {
					t.Fatalf("feature %d: code %d outside ±%d", j, code, half)
				}
				back := q.dequantize(j, code)
				// back must sit on the grid: zero + code*step, within 1 ULP.
				grid := q.zero[j] + float64(code)*q.step[j]
				ulp := math.Nextafter(math.Abs(grid), math.Inf(1)) - math.Abs(grid)
				if diff := math.Abs(back - grid); diff > ulp {
					t.Fatalf("feature %d: dequantized %.17g off grid point %.17g", j, back, grid)
				}
				if again := q.quantize(j, back); again != code {
					t.Fatalf("feature %d: requantized code %d != %d", j, again, code)
				}
			}
		}
	}
}

// TestQuantErrors covers the failure surface: MAC kernels without
// calibration rows, comparison models overflowing the rank-code
// capacity, and label-only Proba.
func TestQuantErrors(t *testing.T) {
	quantSetup(t)
	t.Run("no-calibration", func(t *testing.T) {
		_, err := Compile(quantBench.models["Logistic"], WithPrecision(Int8))
		if !errors.Is(err, ErrNoCalibration) {
			t.Fatalf("err = %v, want ErrNoCalibration", err)
		}
	})
	t.Run("capacity", func(t *testing.T) {
		// An uncapped OneR on the overlapped workload memorizes far more
		// than 254 thresholds — unrepresentable in 8-bit codes.
		o := oner.New()
		if err := o.Train(quantBench.x, quantBench.y, 6); err != nil {
			t.Fatal(err)
		}
		_, err := Compile(o, WithPrecision(Int8))
		if !errors.Is(err, ErrQuantCapacity) {
			t.Fatalf("err = %v, want ErrQuantCapacity", err)
		}
	})
	t.Run("bad-calibration-width", func(t *testing.T) {
		_, err := Compile(quantBench.models["Logistic"],
			WithPrecision(Int8), WithCalibration([][]float64{{1, 2}}))
		if err == nil {
			t.Fatal("want error for mis-sized calibration rows")
		}
	})
	t.Run("label-only", func(t *testing.T) {
		qp, err := Compile(quantBench.models["Logistic"],
			WithPrecision(Int8), WithCalibration(quantBench.x))
		if err != nil {
			t.Fatal(err)
		}
		if qp.HasProba() || qp.Spec().Proba {
			t.Fatal("quantized program claims probabilities")
		}
		dst := [][]float64{make([]float64, 6)}
		if err := qp.Proba(dst, quantBench.x[:1]); !errors.Is(err, ErrNoProba) {
			t.Fatalf("Proba err = %v, want ErrNoProba", err)
		}
	})
}

// TestQuantSpec checks the introspection record end to end, and that the
// zero-option Compile is unchanged (Float64 spec, exact agreement).
func TestQuantSpec(t *testing.T) {
	quantSetup(t)
	fp, err := Compile(quantBench.models["Logistic"])
	if err != nil {
		t.Fatal(err)
	}
	fs := fp.Spec()
	if fs.Precision != Float64 || fs.WeightBits != 64 || fs.AccumBits != 64 ||
		fs.Agreement != 1 || fs.Quantizer != "" || fs.Scale != nil || !fs.Proba {
		t.Fatalf("float64 spec = %+v", fs)
	}
	// WithPrecision(Float64) must be byte-equal to the zero-option call.
	fp2, err := Compile(quantBench.models["Logistic"], WithPrecision(Float64))
	if err != nil {
		t.Fatal(err)
	}
	if got := fp2.Spec(); got.Precision != Float64 || got.WeightBits != 64 ||
		got.Quantizer != "" || got.Scale != nil || !got.Proba {
		t.Fatalf("WithPrecision(Float64) spec differs: %+v vs %+v", got, fp.Spec())
	}
	qp, err := Compile(quantBench.models["Logistic"],
		WithPrecision(Int8), WithCalibration(quantBench.x))
	if err != nil {
		t.Fatal(err)
	}
	qs := qp.Spec()
	if qs.Classifier != "Logistic" || qs.Precision != Int8 ||
		qs.Features != 8 || qs.Classes != 6 ||
		qs.WeightBits != 8 || qs.AccumBits != 32 ||
		qs.Quantizer != "affine" || len(qs.Scale) != 8 ||
		qs.CalibrationRows != len(quantBench.x) {
		t.Fatalf("int8 spec = %+v", qs)
	}
	for j, sc := range qs.Scale {
		if sc.Feature != j || sc.Step <= 0 {
			t.Fatalf("scale[%d] = %+v", j, sc)
		}
	}
	// Spec returns a copy: mutating it must not touch the program.
	qs.Scale[0].Step = -1
	if qp.Spec().Scale[0].Step == -1 {
		t.Fatal("Spec() aliases internal scale table")
	}
	// Rank-coded programs report the rank quantizer, no scale table, and
	// the int16 width pair.
	tp, err := Compile(quantBench.models["J48"], WithPrecision(Int16))
	if err != nil {
		t.Fatal(err)
	}
	ts := tp.Spec()
	if ts.Quantizer != "rank" || ts.Scale != nil || ts.WeightBits != 16 || ts.AccumBits != 64 {
		t.Fatalf("int16 tree spec = %+v", ts)
	}
	if ts.Agreement != 1 {
		t.Fatalf("rank-coded agreement %v, want 1 (exact)", ts.Agreement)
	}
	// Precision round-trips through its text form.
	for _, p := range []Precision{Float64, Int16, Int8} {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Precision
		if err := back.UnmarshalText(b); err != nil || back != p {
			t.Fatalf("text round trip %v -> %s -> %v (%v)", p, b, back, err)
		}
	}
	if _, err := ParsePrecision("int4"); err == nil {
		t.Fatal("ParsePrecision accepted int4")
	}
}

// TestQuantZeroAlloc pins the arena guarantee on the quantized path:
// after warm-up, batch and single-row prediction allocate nothing.
func TestQuantZeroAlloc(t *testing.T) {
	quantSetup(t)
	for name, c := range quantBench.models {
		t.Run(name, func(t *testing.T) {
			p, err := Compile(c, WithPrecision(Int8), WithCalibration(quantBench.x))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int, 256)
			batch := quantBench.x[:256]
			if err := p.Predict(dst, batch); err != nil {
				t.Fatal(err) // warm the scratch pool
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := p.Predict(dst, batch); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("Predict allocates %.1f per batch", avg)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if _, err := p.PredictOne(batch[0]); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("PredictOne allocates %.1f per call", avg)
			}
		})
	}
}

// quantNames lists the eight classifiers in a fixed order, so the random
// models of the differential tests are the same on every run.
var quantNames = []string{"OneR", "JRip", "J48", "REPTree", "NaiveBayes", "Logistic", "SVM", "MLP"}

// randomModel trains one model of the named classifier on x, alternating
// the registry's capped shape with the uncapped default and drawing
// short trainings for the SGD learners.
func randomModel(t *testing.T, src *rng.Source, name string, trial int, x [][]float64, y []int, k int) ml.Classifier {
	t.Helper()
	mk := quantFactories()[name]
	if trial%2 == 1 {
		mk = factories()[name]
	}
	c := mk()
	switch m := c.(type) {
	case *oner.OneR:
		if trial%4 == 3 {
			m.MinBucket = 1
		}
	case *linear.Logistic:
		m.Epochs = 1 + src.Intn(20)
	case *linear.SVM:
		m.Epochs = 1 + src.Intn(20)
	case *mlp.MLP:
		m.Epochs = 1 + src.Intn(8)
	}
	if err := c.Train(x, y, k); err != nil {
		t.Fatalf("%s trial %d: train: %v", name, trial, err)
	}
	return c
}

// TestQuantMatchesReference holds every quantized program to the
// reference kernels of quant_ref_test.go. For 120 random NaN-free models
// of each classifier at Int8 and Int16, the program and the reference
// fail to compile with the same error, or report byte-identical specs
// (scale table and measured agreement included), hold the same integer
// MAC parameters, and give the same label on every probe row: the
// training rows, blends of two of them, and rows stretched past the
// calibration range.
func TestQuantMatchesReference(t *testing.T) {
	src := rng.New(22)
	for _, name := range quantNames {
		compiled := map[Precision]int{}
		for trial := 0; trial < 120; trial++ {
			dim, k := 1+src.Intn(10), 2+src.Intn(4)
			n := 20 + src.Intn(200)
			if name == "OneR" && trial%8 == 7 {
				n = 700 // with MinBucket 1, often past the int8 rank codes
			}
			x, y := mltest.Random(src, n, dim, k)
			probe := append([][]float64{}, x...)
			for len(probe) < len(x)+400 {
				a, b, u := x[src.Intn(n)], x[src.Intn(n)], src.Range(-0.5, 1.5)
				stretch := 1.0
				if src.Bool(0.25) {
					stretch = src.Range(-4, 4)
				}
				row := make([]float64, dim)
				for j := range row {
					row[j] = (a[j] + u*(b[j]-a[j])) * stretch
				}
				probe = append(probe, row)
			}
			c := randomModel(t, src, name, trial, x, y, k)
			for _, prec := range []Precision{Int8, Int16} {
				p, err := Compile(c, WithPrecision(prec), WithCalibration(x))
				rk, rs, rspec, rerr := refCompileQuant(c, prec, x)
				if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
					t.Fatalf("%s trial %d %v: compile error %v, reference %v", name, trial, prec, err, rerr)
				}
				if err != nil {
					continue
				}
				compiled[prec]++
				got, _ := json.Marshal(p.Spec())
				want, _ := json.Marshal(rspec)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s trial %d %v: spec\n%s\nreference\n%s", name, trial, prec, got, want)
				}
				if !sameMACParams(p.k, rk) {
					t.Fatalf("%s trial %d %v: integer parameters differ from the reference", name, trial, prec)
				}
				labels, ref := make([]int, len(probe)), make([]int, len(probe))
				if err := p.Predict(labels, probe); err != nil {
					t.Fatal(err)
				}
				rk.predict(ref, probe, rs)
				for i := range probe {
					if labels[i] != ref[i] {
						t.Fatalf("%s trial %d %v: row %d %v: label %d, reference %d",
							name, trial, prec, i, probe[i], labels[i], ref[i])
					}
				}
			}
		}
		t.Logf("%s: %d int8 and %d int16 programs match", name, compiled[Int8], compiled[Int16])
		if compiled[Int8] < 100 || compiled[Int16] < 100 {
			t.Fatalf("%s: compiled %d int8 and %d int16 models, want at least 100 of each",
				name, compiled[Int8], compiled[Int16])
		}
	}
}

// TestQuantCapacityMatchesReference: the capacity check of a rank-coded
// program accepts and rejects exactly the threshold sets the reference
// rank coder does, with the same error. The sets hold around the Int8
// capacity of distinct values, with ties, NaN, ±Inf and -0, and one
// feature past dim that neither counts.
func TestQuantCapacityMatchesReference(t *testing.T) {
	src := rng.New(24)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rejected := 0
	for trial := 0; trial < 400; trial++ {
		dim, half := 1+src.Intn(4), Int8.half()
		per, ref := map[int][]float64{}, map[int][]float64{}
		for j := 0; j <= dim; j++ {
			m := 220 + src.Intn(60)
			for i := 2*m + src.Intn(3*m); i > 0; i-- {
				v := float64(src.Intn(m))
				if src.Bool(0.02) {
					v = special[src.Intn(len(special))]
				}
				per[j] = append(per[j], v)
				ref[j] = append(ref[j], v)
			}
		}
		err := rankCapacity(dim, half, per)
		_, rerr := refBuildRankQ(dim, half, ref)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("trial %d: capacity error %v, reference %v", trial, err, rerr)
		}
		if err != nil {
			rejected++
		}
	}
	t.Logf("%d of 400 threshold sets rejected", rejected)
	if rejected < 40 || rejected > 360 {
		t.Fatalf("%d of 400 threshold sets rejected: the sets do not straddle the capacity", rejected)
	}
}

// TestQuantRankMatchesFloat: a rank-coded program decides every
// comparison as float64 does, so at both widths the four comparison
// programs label every row as the float64 program and the interpreted
// classifier do. The models train on mltest.Random and mltest.Tricky
// rows, and the probes add Tricky rows and rows of NaN, ±Inf and zeros.
func TestQuantRankMatchesFloat(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 60; trial++ {
		dim, k := 1+src.Intn(8), 2+src.Intn(4)
		gen := mltest.Random
		if trial%2 == 1 {
			gen = mltest.Tricky
		}
		x, y := gen(src, 30+src.Intn(200), dim, k)
		probe, _ := mltest.Tricky(src, 200, dim, k)
		probe = append(append(probe, x...), specialRows(x[0])...)
		for _, name := range quantNames[:4] {
			c := randomModel(t, src, name, trial/2, x, y, k)
			fp, err := Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, len(probe))
			if err := fp.Predict(want, probe); err != nil {
				t.Fatal(err)
			}
			for i, row := range probe {
				if l := c.Predict(row); want[i] != l {
					t.Fatalf("%s trial %d: row %d %v: float64 %d, interpreted %d", name, trial, i, row, want[i], l)
				}
			}
			for _, prec := range []Precision{Int8, Int16} {
				qp, err := Compile(c, WithPrecision(prec), WithCalibration(x))
				if err != nil {
					t.Fatalf("%s trial %d %v: %v", name, trial, prec, err)
				}
				got := make([]int, len(probe))
				if err := qp.Predict(got, probe); err != nil {
					t.Fatal(err)
				}
				for i, row := range probe {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d %v: row %d %v: label %d, float64 %d",
							name, trial, prec, i, row, got[i], want[i])
					}
				}
			}
		}
	}
}
