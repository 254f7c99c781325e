package rules

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ml/mltest"
	"repro/internal/rng"
)

func TestJRipSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.93 {
		t.Fatalf("accuracy %v, want >= 0.93", acc)
	}
}

func TestJRipMulticlass(t *testing.T) {
	x, y := mltest.ThreeBlobs(2, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.8 {
		t.Fatalf("3-class accuracy %v, want >= 0.8", acc)
	}
}

func TestJRipXOR(t *testing.T) {
	// Conjunctions of axis thresholds solve XOR.
	x, y := mltest.XOR(3, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := New()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.85 {
		t.Fatalf("XOR accuracy %v, want >= 0.85", acc)
	}
}

func TestJRipDefaultIsMajority(t *testing.T) {
	x, y := mltest.Blobs(4, [][]float64{{0}, {6}}, 50, 0.5)
	// Make class 1 the clear majority by appending extra rows.
	for i := 0; i < 100; i++ {
		x = append(x, []float64{6.1})
		y = append(y, 1)
	}
	c := New()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if c.DefaultLabel() != 1 {
		t.Fatalf("default label %d, want majority class 1", c.DefaultLabel())
	}
}

func TestJRipRuleStructure(t *testing.T) {
	x, y := mltest.TwoBlobs(5, 150)
	c := New()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	rules := c.Rules()
	if len(rules) == 0 {
		t.Fatal("no rules learned on separable data")
	}
	if c.NumConditions() == 0 {
		t.Fatal("rules have no conditions")
	}
	// Rules must target the minority class(es), never the default.
	for _, r := range rules {
		if r.Label == c.DefaultLabel() {
			t.Fatalf("rule targets the default class: %s", r.String())
		}
		if len(r.Conds) == 0 {
			t.Fatal("empty rule in list")
		}
	}
}

func TestConditionMatchesAndString(t *testing.T) {
	le := Condition{Attr: 0, Op: 'l', Thr: 5}
	gt := Condition{Attr: 1, Op: 'g', Thr: 2}
	if !le.Matches([]float64{5, 0}) || le.Matches([]float64{5.1, 0}) {
		t.Fatal("<= condition wrong")
	}
	if !gt.Matches([]float64{0, 2.1}) || gt.Matches([]float64{0, 2}) {
		t.Fatal("> condition wrong")
	}
	if !strings.Contains(le.String(), "<=") || !strings.Contains(gt.String(), ">") {
		t.Fatal("condition rendering wrong")
	}
	r := Rule{Conds: []Condition{le, gt}, Label: 1}
	if !r.Matches([]float64{4, 3}) || r.Matches([]float64{4, 1}) {
		t.Fatal("rule conjunction wrong")
	}
	if !strings.Contains(r.String(), "and") {
		t.Fatal("rule rendering wrong")
	}
}

func TestJRipDeterministicWithSeed(t *testing.T) {
	x, y := mltest.ThreeBlobs(6, 120)
	a, b := New(), New()
	a.Seed, b.Seed = 4, 4
	if err := a.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("same seed, different rules")
		}
	}
}

func TestJRipPanicsUntrained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic before Train")
		}
	}()
	New().Predict([]float64{1})
}

func TestJRipRejectsBadInput(t *testing.T) {
	if err := New().Train(nil, nil, 2); err == nil {
		t.Fatal("accepted empty set")
	}
}

// TestBestConditionMatchesReference runs the literal search and the
// row-scanning reference in jrip_ref_test.go on random covered sets of
// tables full of ties, NaN, +-Inf and -0, and requires the same
// attribute, operator, threshold bits and gain.
func TestBestConditionMatchesReference(t *testing.T) {
	src := rng.New(19)
	for trial := 0; trial < 400; trial++ {
		dim, k := 1+src.Intn(16), 2+src.Intn(5)
		x, y := mltest.Tricky(src, 2+src.Intn(120), dim, k)
		covered := src.Perm(len(x))[:1+src.Intn(len(x))]
		class := y[covered[src.Intn(len(covered))]]
		if p, n := countClass(y, covered, class); p == 0 || n == 0 {
			continue // the grow loop stops before searching
		}
		j := &JRip{Candidates: 4 + src.Intn(20)}
		got, gotGain := j.bestCondition(x, y, covered, class)
		want, wantGain := refBestCondition(j, x, y, covered, class)
		if got.Attr != want.Attr || got.Op != want.Op ||
			math.Float64bits(got.Thr) != math.Float64bits(want.Thr) ||
			math.Float64bits(gotGain) != math.Float64bits(wantGain) {
			t.Fatalf("trial %d: got %+v gain %v, reference %+v gain %v",
				trial, got, gotGain, want, wantGain)
		}
	}
}
