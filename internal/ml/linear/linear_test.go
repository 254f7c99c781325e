package linear

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ml/mltest"
	"repro/internal/rng"
)

func TestLogisticSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewLogistic()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.97 {
		t.Fatalf("accuracy %v, want >= 0.97", acc)
	}
}

func TestLogisticMulticlass(t *testing.T) {
	x, y := mltest.ThreeBlobs(2, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewLogistic()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.85 {
		t.Fatalf("3-class accuracy %v, want >= 0.85", acc)
	}
}

func TestLogisticProba(t *testing.T) {
	x, y := mltest.ThreeBlobs(3, 80)
	c := NewLogistic()
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := c.Proba(x[i])
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestLogisticScaleInvariance(t *testing.T) {
	// Internal standardization must make huge-scale features (raw HPC
	// counts) learnable.
	x, y := mltest.TwoBlobs(4, 150)
	for i := range x {
		x[i][0] *= 1e6 // counts-like magnitude
		x[i][1] *= 1e3
	}
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewLogistic()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.95 {
		t.Fatalf("accuracy %v on scaled features, want >= 0.95", acc)
	}
}

func TestLogisticWeightsShape(t *testing.T) {
	x, y := mltest.ThreeBlobs(5, 60)
	c := NewLogistic()
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	w := c.Weights()
	if len(w) != 3 || len(w[0]) != 5 { // 4 features + bias
		t.Fatalf("weights shape %dx%d, want 3x5", len(w), len(w[0]))
	}
}

func TestLogisticDeterministicWithSeed(t *testing.T) {
	x, y := mltest.TwoBlobs(6, 100)
	a, b := NewLogistic(), NewLogistic()
	a.Seed, b.Seed = 9, 9
	if err := a.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		pa, pb := a.Proba(x[i]), b.Proba(x[i])
		for k := range pa {
			if pa[k] != pb[k] {
				t.Fatal("same seed, different model")
			}
		}
	}
}

func TestSVMSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewSVM()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.97 {
		t.Fatalf("accuracy %v, want >= 0.97", acc)
	}
}

func TestSVMMulticlassOvR(t *testing.T) {
	x, y := mltest.ThreeBlobs(2, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewSVM()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.85 {
		t.Fatalf("3-class accuracy %v, want >= 0.85", acc)
	}
	w := c.Weights()
	if len(w) != 3 {
		t.Fatalf("OvR weight vectors = %d, want 3", len(w))
	}
}

func TestSVMXORIsHard(t *testing.T) {
	// A linear SVM cannot solve XOR.
	x, y := mltest.XOR(3, 100)
	c := NewSVM()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, x, y); acc > 0.75 {
		t.Fatalf("linear SVM on XOR scored %v", acc)
	}
}

func TestPanicsUntrained(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogistic().Predict([]float64{1}) },
		func() { NewSVM().Predict([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic before Train")
				}
			}()
			f()
		}()
	}
}

func TestRejectBadInput(t *testing.T) {
	if err := NewLogistic().Train(nil, nil, 2); err == nil {
		t.Fatal("logistic accepted empty set")
	}
	if err := NewSVM().Train([][]float64{{1}}, []int{3}, 2); err == nil {
		t.Fatal("svm accepted out-of-range label")
	}
}

// TestLogisticMatchesReference trains Logistic and the reference trainer
// in linear_ref_test.go on the same random problems, with and without
// class weights, and requires every weight and every probability to agree
// bit for bit. The problems cover 1-16 features, 2-6 classes, batch sizes
// that do and do not divide the row count, and constant features.
func TestLogisticMatchesReference(t *testing.T) {
	src := rng.New(19)
	for trial := 0; trial < 48; trial++ {
		dim, k := 1+src.Intn(16), 2+src.Intn(5)
		x, y := mltest.Random(src, 8+src.Intn(60), dim, k)
		got := &Logistic{Epochs: 1 + src.Intn(6), LR: src.Range(0.01, 0.5),
			L2: []float64{0, 1e-4, 1e-2}[trial%3], Batch: 1 + src.Intn(40), Seed: uint64(trial)}
		if trial%2 == 1 {
			got.ClassWeights = make([]float64, k)
			for c := range got.ClassWeights {
				got.ClassWeights[c] = src.Range(0.1, 5)
			}
		}
		want := &refLogistic{*got}
		if err := got.Train(x, y, k); err != nil {
			t.Fatal(err)
		}
		want.Train(x, y, k)
		mltest.SameBits(t, fmt.Sprintf("trial %d: w", trial), got.Weights(), want.w)
		for i, row := range x {
			mltest.SameBits(t, fmt.Sprintf("trial %d: proba of row %d", trial, i),
				[][]float64{got.Proba(row)}, [][]float64{want.Proba(row)})
		}
	}
}

// TestSVMMatchesReference does the same for the one-vs-rest Pegasos SVM:
// every class vector must agree with the reference bit for bit.
func TestSVMMatchesReference(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 48; trial++ {
		dim, k := 1+src.Intn(16), 2+src.Intn(5)
		x, y := mltest.Random(src, 8+src.Intn(60), dim, k)
		got := &SVM{Lambda: []float64{0, 1e-4, 1e-2}[trial%3], Epochs: 1 + src.Intn(6),
			Seed: uint64(trial)}
		want := &refSVM{*got}
		if err := got.Train(x, y, k); err != nil {
			t.Fatal(err)
		}
		want.Train(x, y, k)
		mltest.SameBits(t, fmt.Sprintf("trial %d: w", trial), got.Weights(), want.w)
	}
}
