package oner_test

import (
	"math"
	"testing"

	"repro/internal/infer"
	"repro/internal/ml/mltest"
	"repro/internal/ml/oner"
	"repro/internal/rng"
)

// TestOneRNaNRulesAscend trains 200 rules on rows with NaN, ±Inf, −0 and
// many ties. Every rule's thresholds must ascend and hold no NaN, since
// Predict and the compiled program binary-search them; a NaN feature
// must take the last interval's label; and the compiled program must
// label every probe row, NaN included, as Predict does.
func TestOneRNaNRulesAscend(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		x, y := mltest.Tricky(src, 100, 3, 3)
		o := &oner.OneR{MinBucket: 1 + trial%6}
		if err := o.Train(x, y, 3); err != nil {
			t.Fatal(err)
		}
		attr, thr, labels := o.Rule()
		for i, v := range thr {
			if math.IsNaN(v) || i > 0 && !(thr[i-1] < v) {
				t.Fatalf("trial %d: thresholds %v do not ascend", trial, thr)
			}
		}
		nan := make([]float64, 3)
		nan[attr] = math.NaN()
		if got := o.Predict(nan); got != labels[len(labels)-1] {
			t.Fatalf("trial %d: NaN feature labelled %d, last interval %d", trial, got, labels[len(labels)-1])
		}

		p, err := infer.Compile(o)
		if err != nil {
			t.Fatal(err)
		}
		probe, _ := mltest.Tricky(src, 200, 3, 3)
		probe = append(probe, x...)
		got := make([]int, len(probe))
		if err := p.Predict(got, probe); err != nil {
			t.Fatal(err)
		}
		for i, row := range probe {
			if want := o.Predict(row); got[i] != want {
				t.Fatalf("trial %d: row %v: compiled %d, interpreted %d", trial, row, got[i], want)
			}
		}
	}
}
