package mlp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ml/mltest"
	"repro/internal/rng"
)

func TestMLPSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.97 {
		t.Fatalf("accuracy %v, want >= 0.97", acc)
	}
}

func TestMLPSolvesXOR(t *testing.T) {
	// The defining capability over the linear models.
	x, y := mltest.XOR(2, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	c.Hidden = 8
	c.Epochs = 200
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.9 {
		t.Fatalf("XOR accuracy %v, want >= 0.9", acc)
	}
}

func TestMLPMulticlass(t *testing.T) {
	x, y := mltest.ThreeBlobs(3, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.85 {
		t.Fatalf("3-class accuracy %v, want >= 0.85", acc)
	}
}

func TestMLPProbaAndTopology(t *testing.T) {
	x, y := mltest.ThreeBlobs(4, 80)
	c := New()
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	p := c.Proba(x[0])
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	in, hid, out := c.Topology()
	if in != 4 || out != 3 {
		t.Fatalf("topology %d-%d-%d", in, hid, out)
	}
	// WEKA default 'a': (4+3)/2 = 3.
	if hid != 3 {
		t.Fatalf("default hidden %d, want 3", hid)
	}
}

func TestMLPScaleInvariance(t *testing.T) {
	x, y := mltest.TwoBlobs(5, 150)
	for i := range x {
		x[i][0] *= 1e6
		x[i][1] *= 1e4
	}
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.95 {
		t.Fatalf("accuracy %v on HPC-scale features", acc)
	}
}

func TestMLPDeterministicWithSeed(t *testing.T) {
	x, y := mltest.TwoBlobs(6, 80)
	a, b := New(), New()
	a.Seed, b.Seed = 3, 3
	a.Epochs, b.Epochs = 20, 20
	if err := a.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestMLPPanicsUntrained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic before Train")
		}
	}()
	New().Predict([]float64{1, 2})
}

func TestMLPRejectsBadInput(t *testing.T) {
	if err := New().Train(nil, nil, 2); err == nil {
		t.Fatal("accepted empty training set")
	}
}

// TestTrainMatchesReference trains MLP and the reference trainer in
// mlp_ref_test.go on the same random problems and requires every weight
// and every probability of the trained models to agree bit for bit. The
// problems cover 1-16 features, 2-6 classes, hidden widths on and off a
// multiple of 4, features on scales from 1e-3 to 1e6, and constant
// features.
func TestTrainMatchesReference(t *testing.T) {
	src := rng.New(19)
	hiddens := []int{0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 4, 8}
	for trial := 0; trial < 48; trial++ {
		dim, k := 1+src.Intn(16), 2+src.Intn(5)
		x, y := mltest.Random(src, 8+src.Intn(40), dim, k)
		got := &MLP{Hidden: hiddens[trial%len(hiddens)], Epochs: 1 + src.Intn(4),
			Momentum: src.Range(0, 0.9), Seed: uint64(trial)}
		if trial%3 != 0 {
			got.LR = src.Range(0.01, 0.6)
		}
		want := &refMLP{Hidden: got.Hidden, Epochs: got.Epochs, LR: got.LR,
			Momentum: got.Momentum, Seed: got.Seed}
		if err := got.Train(x, y, k); err != nil {
			t.Fatal(err)
		}
		want.Train(x, y, k)
		w1, w2 := got.Weights()
		mltest.SameBits(t, fmt.Sprintf("trial %d: w1", trial), w1, want.w1)
		mltest.SameBits(t, fmt.Sprintf("trial %d: w2", trial), w2, want.w2)
		for i, row := range x {
			mltest.SameBits(t, fmt.Sprintf("trial %d: proba of row %d", trial, i),
				[][]float64{got.Proba(row)}, [][]float64{want.Proba(row)})
		}
	}
}

// TestWeightsRowsDoNotAlias checks that the row views Weights returns,
// which share one backing array, end their capacity at their length: an
// append to one row must copy it, not overwrite the next row.
func TestWeightsRowsDoNotAlias(t *testing.T) {
	x, y := mltest.ThreeBlobs(7, 30)
	c := New()
	c.Epochs = 2
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	w1, w2 := c.Weights()
	for l, w := range [][][]float64{w1, w2} {
		next := append([]float64{}, w[1]...)
		_ = append(w[0], 42, 43)
		for i, v := range w[1] {
			if math.Float64bits(v) != math.Float64bits(next[i]) {
				t.Fatalf("w%d: an append to row 0 changed row 1[%d] from %v to %v",
					l+1, i, next[i], v)
			}
		}
	}
}
