// Package oner implements Holte's 1R classifier (WEKA's OneR): a single
// rule on the one attribute that, after supervised discretization, makes
// the fewest training errors. Its trivially small hardware footprint is
// why the paper singles it out for embedded deployment.
package oner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
)

// OneR is the 1R classifier. The zero value is usable with default
// options; call Train before Predict.
type OneR struct {
	// MinBucket is the minimum number of majority-class instances per
	// discretization interval (WEKA's -B, default 6).
	MinBucket int
	// MaxIntervals, when positive, bounds the number of intervals of the
	// learned rule by raising the effective bucket size — the knob a
	// hardware implementation turns, since every interval is a physical
	// comparator. 0 means unlimited (WEKA behaviour).
	MaxIntervals int

	attr       int       // chosen attribute
	thresholds []float64 // interval upper bounds (exclusive), ascending
	labels     []int     // len(thresholds)+1 interval labels
	fallback   int       // majority class, for degenerate cases
	dim        int
	numClasses int
	trained    bool
}

// New returns a OneR with WEKA's default bucket size.
func New() *OneR { return &OneR{MinBucket: 6} }

// Name implements ml.Classifier.
func (o *OneR) Name() string { return "OneR" }

// Train implements ml.Classifier.
func (o *OneR) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	if o.MinBucket <= 0 {
		o.MinBucket = 6
	}
	minBucket := o.MinBucket
	if o.MaxIntervals > 0 {
		// Each interval needs at least bucketFor majority instances, so
		// the rule cannot exceed MaxIntervals intervals.
		bucketFor := (len(y) + o.MaxIntervals - 1) / o.MaxIntervals
		if bucketFor > minBucket {
			minBucket = bucketFor
		}
	}
	o.fallback, _ = ml.MajorityLabel(y, numClasses)

	bestErrs := len(y) + 1
	for a := 0; a < dim; a++ {
		thr, lab, errs := o.buildRule(x, y, a, numClasses, minBucket)
		if errs < bestErrs {
			bestErrs = errs
			o.attr = a
			o.thresholds = thr
			o.labels = lab
		}
	}
	if bestErrs > len(y) {
		return fmt.Errorf("oner: no usable attribute found")
	}
	o.dim, o.numClasses = dim, numClasses
	o.trained = true
	return nil
}

// Dim implements ml.Model.
func (o *OneR) Dim() int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return o.dim
}

// NumClasses implements ml.Model.
func (o *OneR) NumClasses() int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return o.numClasses
}

// Fallback returns the majority-class label used when the selected
// attribute is missing from an instance.
func (o *OneR) Fallback() int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return o.fallback
}

// buildRule discretizes attribute a with Holte's algorithm and returns the
// rule plus its training error count.
func (o *OneR) buildRule(x [][]float64, y []int, a, numClasses, minBucket int) (thr []float64, lab []int, errs int) {
	type pair struct {
		v     float64
		label int
	}
	pairs := make([]pair, 0, len(x))
	for i := range x {
		if v := x[i][a]; !math.IsNaN(v) {
			pairs = append(pairs, pair{v, y[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	// NaNs go after every number, so the values ascend and the NaNs end
	// the last interval, where Predict's binary search sends a NaN feature.
	for i := range x {
		if v := x[i][a]; math.IsNaN(v) {
			pairs = append(pairs, pair{v, y[i]})
		}
	}

	// Greedy interval construction: extend the current interval until its
	// majority class has at least MinBucket members, then close it at the
	// next value change.
	type interval struct {
		label int
		count []int
		hi    float64 // last value included
	}
	var ivals []interval
	cur := interval{count: make([]int, numClasses)}
	flush := func() {
		if sum(cur.count) == 0 {
			return
		}
		best := ml.ArgMaxInt(cur.count)
		cur.label = best
		ivals = append(ivals, cur)
		cur = interval{count: make([]int, numClasses)}
	}
	for i := 0; i < len(pairs); i++ {
		cur.count[pairs[i].label]++
		cur.hi = pairs[i].v
		_, maxCount := maxOf(cur.count)
		if maxCount >= minBucket {
			// Close only at a value boundary so equal values never span
			// two intervals; the NaNs, sorted last, count as one value.
			if i+1 < len(pairs) && pairs[i+1].v != pairs[i].v && !math.IsNaN(pairs[i].v) {
				flush()
			}
		}
	}
	flush()
	if len(ivals) == 0 {
		return nil, nil, len(y) + 1
	}

	// Merge adjacent intervals with the same majority label.
	merged := ivals[:1]
	for _, iv := range ivals[1:] {
		last := &merged[len(merged)-1]
		if iv.label == last.label {
			for c := range last.count {
				last.count[c] += iv.count[c]
			}
			last.hi = iv.hi
		} else {
			merged = append(merged, iv)
		}
	}

	// Thresholds: midpoint between one interval's hi and the next
	// interval's contents (approximated by its hi of the previous).
	lab = make([]int, len(merged))
	for i, iv := range merged {
		lab[i] = iv.label
		errs += sum(iv.count) - iv.count[iv.label]
	}
	thr = make([]float64, len(merged)-1)
	for i := 0; i < len(merged)-1; i++ {
		thr[i] = merged[i].hi
	}
	return thr, lab, errs
}

// Predict implements ml.Classifier.
func (o *OneR) Predict(features []float64) int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	if o.attr >= len(features) {
		return o.fallback
	}
	v := features[o.attr]
	// First interval whose threshold is >= v.
	idx := sort.SearchFloat64s(o.thresholds, v)
	if idx >= len(o.labels) {
		idx = len(o.labels) - 1
	}
	return o.labels[idx]
}

// Attribute returns the index of the selected attribute.
func (o *OneR) Attribute() int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return o.attr
}

// NumIntervals returns the number of discretization intervals of the
// learned rule; the hardware cost model sizes the comparator chain by it.
func (o *OneR) NumIntervals() int {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return len(o.labels)
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

func maxOf(v []int) (idx, val int) {
	idx, val = 0, v[0]
	for i, x := range v {
		if x > val {
			idx, val = i, x
		}
	}
	return idx, val
}

// Rule exposes the learned 1R rule for hardware code generation: interval
// upper bounds (ascending, exclusive) and the label of each of the
// len(thresholds)+1 intervals.
func (o *OneR) Rule() (attr int, thresholds []float64, labels []int) {
	if !o.trained {
		panic(ml.ErrNotTrained)
	}
	return o.attr, append([]float64{}, o.thresholds...), append([]int{}, o.labels...)
}
