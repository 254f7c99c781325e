package infer

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/mltest"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
)

// factories builds each of the paper's 8 classifiers fresh, seeded.
func factories() map[string]func() ml.Classifier {
	return map[string]func() ml.Classifier{
		"OneR":    func() ml.Classifier { return oner.New() },
		"JRip":    func() ml.Classifier { j := rules.New(); j.Seed = 7; return j },
		"J48":     func() ml.Classifier { return tree.NewJ48() },
		"REPTree": func() ml.Classifier { r := tree.NewREPTree(); r.Seed = 7; return r },
		"NaiveBayes": func() ml.Classifier {
			nb := bayes.New()
			nb.LogTransform = true
			return nb
		},
		"Logistic": func() ml.Classifier { lg := linear.NewLogistic(); lg.Seed = 7; return lg },
		"SVM":      func() ml.Classifier { s := linear.NewSVM(); s.Seed = 7; return s },
		"MLP":      func() ml.Classifier { m := mlp.New(); m.Seed = 7; return m },
	}
}

// datasets covers the equivalence surface: binary, multiclass, a
// single-feature degenerate, and a constant-label degenerate.
func datasets() map[string]struct {
	x          [][]float64
	y          []int
	numClasses int
} {
	out := map[string]struct {
		x          [][]float64
		y          []int
		numClasses int
	}{}
	x, y := mltest.TwoBlobs(3, 120)
	out["binary"] = struct {
		x          [][]float64
		y          []int
		numClasses int
	}{x, y, 2}
	x, y = mltest.ThreeBlobs(5, 80)
	out["multiclass"] = struct {
		x          [][]float64
		y          []int
		numClasses int
	}{x, y, 3}
	x, y = mltest.Blobs(9, [][]float64{{0}, {5}}, 60, 0.8)
	out["single-feature"] = struct {
		x          [][]float64
		y          []int
		numClasses int
	}{x, y, 2}
	x, _ = mltest.TwoBlobs(11, 60)
	out["constant-label"] = struct {
		x          [][]float64
		y          []int
		numClasses int
	}{x, make([]int, len(x)), 2}
	return out
}

// TestEquivalence proves every compiled program emits byte-identical
// labels — and, where supported, probabilities — to the interpreted
// classifier, across binary, multiclass, and degenerate models.
func TestEquivalence(t *testing.T) {
	for dsName, ds := range datasets() {
		for clfName, mk := range factories() {
			t.Run(dsName+"/"+clfName, func(t *testing.T) {
				c := mk()
				if err := c.Train(ds.x, ds.y, ds.numClasses); err != nil {
					t.Fatalf("train: %v", err)
				}
				p, err := Compile(c)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if p.Dim() != len(ds.x[0]) || p.NumClasses() != ds.numClasses {
					t.Fatalf("program shape (%d,%d), want (%d,%d)",
						p.Dim(), p.NumClasses(), len(ds.x[0]), ds.numClasses)
				}
				got := make([]int, len(ds.x))
				if err := p.Predict(got, ds.x); err != nil {
					t.Fatalf("predict: %v", err)
				}
				for i, x := range ds.x {
					want := c.Predict(x)
					if got[i] != want {
						t.Fatalf("row %d: compiled %d, interpreted %d", i, got[i], want)
					}
					one, err := p.PredictOne(x)
					if err != nil {
						t.Fatalf("predict one: %v", err)
					}
					if one != want {
						t.Fatalf("row %d: PredictOne %d, interpreted %d", i, one, want)
					}
				}
				pc, isProb := c.(ml.ProbClassifier)
				if p.HasProba() != (isProb && clfName != "SVM") {
					t.Fatalf("HasProba = %v for %s", p.HasProba(), clfName)
				}
				if !p.HasProba() {
					// Label-only programs label rows of NaN, ±Inf and zeros
					// as the interpreted classifier does.
					rows := append(ds.x[:len(ds.x):len(ds.x)], specialRows(ds.x[0])...)
					labels := make([]int, len(rows))
					if err := p.Predict(labels, rows); err != nil {
						t.Fatalf("predict: %v", err)
					}
					for i, x := range rows {
						if want := c.Predict(x); labels[i] != want {
							t.Fatalf("row %d %v: compiled %d, interpreted %d", i, x, labels[i], want)
						}
					}
					return
				}
				dst := make([][]float64, len(ds.x))
				for i := range dst {
					dst[i] = make([]float64, ds.numClasses)
				}
				if err := p.Proba(dst, ds.x); err != nil {
					t.Fatalf("proba: %v", err)
				}
				for i, x := range ds.x {
					want := pc.Proba(x)
					for cl := range want {
						if math.Float64bits(dst[i][cl]) != math.Float64bits(want[cl]) {
							t.Fatalf("row %d class %d: compiled proba %v, interpreted %v",
								i, cl, dst[i][cl], want[cl])
						}
					}
				}

				// Classify is one pass doing both jobs: Predict's labels and
				// Proba's bits, also on rows of NaN, ±Inf and zeros.
				rows := append(ds.x[:len(ds.x):len(ds.x)], specialRows(ds.x[0])...)
				labels := make([]int, len(rows))
				probs := newProba(len(rows), ds.numClasses)
				if err := p.Predict(labels, rows); err != nil {
					t.Fatalf("predict: %v", err)
				}
				if err := p.Proba(probs, rows); err != nil {
					t.Fatalf("proba: %v", err)
				}
				gotL, gotP := make([]int, len(rows)), newProba(len(rows), ds.numClasses)
				if err := p.Classify(gotL, gotP, rows); err != nil {
					t.Fatalf("classify: %v", err)
				}
				for i, x := range rows {
					if gotL[i] != labels[i] {
						t.Fatalf("row %d %v: Classify label %d, Predict %d", i, x, gotL[i], labels[i])
					}
					want := pc.Proba(x)
					for cl := range want {
						got := math.Float64bits(gotP[i][cl])
						if got != math.Float64bits(probs[i][cl]) || got != math.Float64bits(want[cl]) {
							t.Fatalf("row %d %v class %d: Classify proba %v, Proba %v, interpreted %v",
								i, x, cl, gotP[i][cl], probs[i][cl], want[cl])
						}
					}
				}
			})
		}
	}
}

// specialRows builds nine rows shaped like x: all NaN, all +Inf, all
// -Inf and all zero, the same four values in x's first feature alone,
// and x itself. Nine rows after a dataset whose length is a multiple
// of four put the last one on the MLP kernel's one-row tail.
func specialRows(x []float64) [][]float64 {
	var rows [][]float64
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		all := make([]float64, len(x))
		for j := range all {
			all[j] = v
		}
		one := append([]float64{v}, x[1:]...)
		rows = append(rows, all, one)
	}
	return append(rows, x)
}

func newProba(n, classes int) [][]float64 {
	dst := make([][]float64, n)
	for i := range dst {
		dst[i] = make([]float64, classes)
	}
	return dst
}

// TestBatchAdapterEquivalence checks the interpreted ml.Batch fallback
// agrees with Predict row by row.
func TestBatchAdapterEquivalence(t *testing.T) {
	x, y := mltest.TwoBlobs(3, 60)
	c := tree.NewJ48()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	dst := make([]int, len(x))
	if err := ml.Batch(c).PredictBatch(dst, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if want := c.Predict(x[i]); dst[i] != want {
			t.Fatalf("row %d: adapter %d, direct %d", i, dst[i], want)
		}
	}
}

// TestUntrained pins the API v2 untrained contract: Compile and the
// batch adapter return ml.ErrNotTrained instead of panicking.
func TestUntrained(t *testing.T) {
	for name, mk := range factories() {
		if _, err := Compile(mk()); !errors.Is(err, ml.ErrNotTrained) {
			t.Errorf("%s: Compile error = %v, want ml.ErrNotTrained", name, err)
		}
	}
	dst := make([]int, 1)
	if err := ml.Batch(tree.NewJ48()).PredictBatch(dst, [][]float64{{1, 2}}); !errors.Is(err, ml.ErrNotTrained) {
		t.Errorf("Batch adapter error = %v, want ml.ErrNotTrained", err)
	}
}

// TestNotCompilable checks classifier types without kernels are refused
// with the sentinel the fallback path keys on.
func TestNotCompilable(t *testing.T) {
	x, y := mltest.TwoBlobs(3, 40)
	bag := &ensemble.Bagging{Base: func() ml.Classifier { return tree.NewJ48() }, N: 3}
	if err := bag.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if Compilable(bag) {
		t.Fatal("ensemble reported compilable")
	}
	if _, err := Compile(bag); !errors.Is(err, ErrNotCompilable) {
		t.Fatalf("Compile error = %v, want ErrNotCompilable", err)
	}
}

// TestProgramArgChecks covers the error surface of the batch entry
// points: short dst, ragged rows, missing proba support.
func TestProgramArgChecks(t *testing.T) {
	x, y := mltest.TwoBlobs(3, 40)
	c := linear.NewSVM()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Predict(make([]int, 1), x); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := p.Predict(make([]int, 2), [][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, err := p.PredictOne([]float64{1}); err == nil {
		t.Fatal("short row accepted by PredictOne")
	}
	dst := [][]float64{{0, 0}}
	if err := p.Proba(dst, x[:1]); !errors.Is(err, ErrNoProba) {
		t.Fatalf("SVM Proba error = %v, want ErrNoProba", err)
	}
	if err := p.Classify(make([]int, 1), dst, x[:1]); !errors.Is(err, ErrNoProba) {
		t.Fatalf("SVM Classify error = %v, want ErrNoProba", err)
	}

	lg := linear.NewLogistic()
	if err := lg.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if p, err = Compile(lg); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"short labels": func() error { return p.Classify(make([]int, 1), newProba(2, 2), x[:2]) },
		"short proba":  func() error { return p.Classify(make([]int, 2), newProba(1, 2), x[:2]) },
		"narrow proba": func() error { return p.Classify(make([]int, 2), newProba(2, 1), x[:2]) },
		"ragged row":   func() error { return p.Classify(make([]int, 2), newProba(2, 2), [][]float64{{1, 2}, {1}}) },
	} {
		if err := call(); err == nil {
			t.Errorf("Classify accepted %s", name)
		}
	}
}

// TestPredictParallelMatchesSerial checks sharded prediction is
// identical to the serial kernel at any worker count.
func TestPredictParallelMatchesSerial(t *testing.T) {
	xs, ys := mltest.TwoBlobs(3, 2500) // 5000 rows, above shardMin
	c := tree.NewJ48()
	if err := c.Train(xs[:200], ys[:200], 2); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]int, len(xs))
	if err := p.Predict(serial, xs); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		sharded := make([]int, len(xs))
		if err := p.PredictParallel(sharded, xs, workers); err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if sharded[i] != serial[i] {
				t.Fatalf("workers=%d row %d: %d != %d", workers, i, sharded[i], serial[i])
			}
		}
	}
}

// TestZeroAlloc is the CI gate on the tentpole property: the
// steady-state compiled predict path allocates nothing, for every
// classifier, on both the batch and single-instance entry points, and
// neither do Proba and Classify where the program has probabilities.
func TestZeroAlloc(t *testing.T) {
	x, y := mltest.ThreeBlobs(1, 100)
	dst := make([]int, len(x))
	proba := newProba(len(x), 3)
	for name, mk := range factories() {
		c := mk()
		if err := c.Train(x, y, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := Compile(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Warm the scratch pool before measuring.
		if err := p.Predict(dst, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := p.Predict(dst, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Predict allocs/op = %v, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := p.PredictOne(x[0]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: PredictOne allocs/op = %v, want 0", name, allocs)
		}
		if !p.HasProba() {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := p.Proba(proba, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Proba allocs/op = %v, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := p.Classify(dst, proba, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Classify allocs/op = %v, want 0", name, allocs)
		}
	}
}
