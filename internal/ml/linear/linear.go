// Package linear implements the paper's linear models: multinomial
// logistic regression (WEKA's Logistic, the thesis's "MLR") and a linear
// support vector machine trained with the Pegasos subgradient method
// (WEKA's SMO counterpart), with one-vs-rest reduction for multiclass.
//
// Raw HPC counts span many orders of magnitude, so both models
// standardize features internally using training-set statistics.
package linear

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Iteration counters across all fits in the process. SVM epochs count
// per binary one-vs-rest problem, matching the work Pegasos performs.
var (
	mLogisticEpochs = obs.GetCounter("ml.logistic_epochs")
	mSVMEpochs      = obs.GetCounter("ml.svm_epochs")
)

// scaler standardizes features with train-set statistics.
type scaler struct {
	mean, std []float64
}

func fitScaler(x [][]float64) *scaler {
	dim := len(x[0])
	s := &scaler{mean: make([]float64, dim), std: make([]float64, dim)}
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *scaler) apply(row []float64, out []float64) {
	for j, v := range row {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
}

// applyAll standardizes every row of x into one contiguous array and
// returns row views into it.
func (s *scaler) applyAll(x [][]float64) [][]float64 {
	dim := len(s.mean)
	buf := make([]float64, len(x)*dim)
	z := make([][]float64, len(x))
	for i, row := range x {
		z[i] = buf[i*dim : (i+1)*dim : (i+1)*dim]
		s.apply(row, z[i])
	}
	return z
}

// Logistic is multinomial logistic regression (softmax) trained with
// SGD and L2 regularization. Each row's gradient step, scaled by
// 1/batch, is applied as soon as the row is seen; only the L2 shrink is
// applied once per batch.
type Logistic struct {
	// Epochs over the training set (default 60).
	Epochs int
	// LR is the initial learning rate (default 0.1, 1/t decay).
	LR float64
	// L2 is the ridge penalty (default 1e-4, WEKA default ridge 1e-8 is
	// too loose for SGD).
	L2 float64
	// Batch is the mini-batch size (default 32).
	Batch int
	// Seed controls shuffling.
	Seed uint64
	// ClassWeights optionally re-weights the loss per true class (length
	// numClasses). Used to balance one-vs-rest experts trained on skewed
	// label distributions; nil means uniform weights.
	ClassWeights []float64

	w       [][]float64 // [class][dim+1], last is bias
	scale   *scaler
	k, dim  int
	trained bool
}

// NewLogistic returns an MLR with default hyperparameters.
func NewLogistic() *Logistic {
	return &Logistic{Epochs: 60, LR: 0.1, L2: 1e-4, Batch: 32, Seed: 1}
}

// Name implements ml.Classifier.
func (lg *Logistic) Name() string { return "Logistic" }

func (lg *Logistic) fillDefaults() {
	d := NewLogistic()
	if lg.Epochs <= 0 {
		lg.Epochs = d.Epochs
	}
	if lg.LR <= 0 {
		lg.LR = d.LR
	}
	if lg.L2 < 0 {
		lg.L2 = d.L2
	}
	if lg.Batch <= 0 {
		lg.Batch = d.Batch
	}
}

// Train implements ml.Classifier.
func (lg *Logistic) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	lg.fillDefaults()
	if lg.ClassWeights != nil && len(lg.ClassWeights) != numClasses {
		return fmt.Errorf("linear: %d class weights for %d classes",
			len(lg.ClassWeights), numClasses)
	}
	lg.k, lg.dim = numClasses, dim
	lg.scale = fitScaler(x)
	lg.w = make([][]float64, numClasses)
	for c := range lg.w {
		lg.w[c] = make([]float64, dim+1)
	}

	n := len(x)
	z := lg.scale.applyAll(x)

	src := rng.New(lg.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, numClasses)
	steps := make([]float64, numClasses)
	step := 0
	for epoch := 0; epoch < lg.Epochs; epoch++ {
		src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += lg.Batch {
			end := start + lg.Batch
			if end > n {
				end = n
			}
			step++
			lr := lg.LR / (1 + 0.001*float64(step))
			scale := lr / float64(end-start)
			for _, idx := range order[start:end] {
				row := z[idx]
				lg.softmax(row, probs)
				sw := 1.0
				if lg.ClassWeights != nil {
					sw = lg.ClassWeights[y[idx]]
				}
				for c := range steps {
					g := sw * probs[c]
					if c == y[idx] {
						g -= sw
					}
					// Go evaluates scale*g*v as (scale*g)*v, so forming
					// the step once per class rounds every update the same.
					steps[c] = scale * g
				}
				lg.update(row, steps)
			}
			// L2 shrinkage (biases excluded).
			if lg.L2 > 0 {
				shrink := 1 - lr*lg.L2
				for _, wc := range lg.w {
					for j := range wc[:dim] {
						wc[j] *= shrink
					}
				}
			}
		}
	}
	mLogisticEpochs.Add(int64(lg.Epochs))
	lg.trained = true
	return nil
}

// update applies one row's steps: w[c] -= steps[c]*row and the bias
// -= steps[c]. It updates two classes per sweep over the row; every
// weight still takes one update per row, the same product and the same
// subtraction.
func (lg *Logistic) update(row, steps []float64) {
	c := 0
	for ; c+2 <= len(lg.w); c += 2 {
		w0, w1 := lg.w[c][:len(row)], lg.w[c+1][:len(row)]
		s0, s1 := steps[c], steps[c+1]
		for j, v := range row {
			w0[j] -= s0 * v
			w1[j] -= s1 * v
		}
		lg.w[c][len(row)] -= s0
		lg.w[c+1][len(row)] -= s1
	}
	if c < len(lg.w) {
		wc, s := lg.w[c][:len(row)], steps[c]
		for j, v := range row {
			wc[j] -= s * v
		}
		lg.w[c][len(row)] -= s
	}
}

// softmax fills out with class probabilities for a standardized row.
// It sums two classes per sweep over z; each sum still starts at the
// class's bias and adds the features in order, so every score is
// bit-identical to one class at a time.
func (lg *Logistic) softmax(z []float64, out []float64) {
	c := 0
	for ; c+2 <= len(lg.w); c += 2 {
		w0, w1 := lg.w[c][:len(z)], lg.w[c+1][:len(z)]
		s0, s1 := lg.w[c][len(z)], lg.w[c+1][len(z)]
		for j, v := range z {
			s0 += w0[j] * v
			s1 += w1[j] * v
		}
		out[c], out[c+1] = s0, s1
	}
	if c < len(lg.w) {
		wc := lg.w[c][:len(z)]
		s := lg.w[c][len(z)]
		for j, v := range z {
			s += wc[j] * v
		}
		out[c] = s
	}
	maxS := math.Inf(-1)
	for _, s := range out {
		if s > maxS {
			maxS = s
		}
	}
	sum := 0.0
	for c, s := range out {
		e := 1.0 // exp(±0) is exactly 1, so the max class skips its exp
		if d := s - maxS; d != 0 {
			e = math.Exp(d)
		}
		out[c] = e
		sum += e
	}
	for c := range out {
		out[c] /= sum
	}
}

// Predict implements ml.Classifier.
func (lg *Logistic) Predict(features []float64) int {
	return ml.ArgMax(lg.Proba(features))
}

// Proba implements ml.ProbClassifier.
func (lg *Logistic) Proba(features []float64) []float64 {
	if !lg.trained {
		panic(ml.ErrNotTrained)
	}
	z := make([]float64, lg.dim)
	lg.scale.apply(features, z)
	out := make([]float64, lg.k)
	lg.softmax(z, out)
	return out
}

// Weights returns the learned weight matrix ([class][dim+1], bias last);
// the hardware cost model sizes the MAC array from it.
func (lg *Logistic) Weights() [][]float64 {
	if !lg.trained {
		panic(ml.ErrNotTrained)
	}
	return lg.w
}

// Dim implements ml.Model.
func (lg *Logistic) Dim() int {
	if !lg.trained {
		panic(ml.ErrNotTrained)
	}
	return lg.dim
}

// NumClasses implements ml.Model.
func (lg *Logistic) NumClasses() int {
	if !lg.trained {
		panic(ml.ErrNotTrained)
	}
	return lg.k
}

// SVM is a linear SVM trained with Pegasos; multiclass via one-vs-rest.
type SVM struct {
	// Lambda is the Pegasos regularization (default 1e-4).
	Lambda float64
	// Epochs over the training set (default 40).
	Epochs int
	// Seed controls sampling.
	Seed uint64

	w       [][]float64 // one weight vector (dim+1) per class, OvR
	scale   *scaler
	k, dim  int
	trained bool
}

// NewSVM returns a linear SVM with default hyperparameters.
func NewSVM() *SVM { return &SVM{Lambda: 1e-4, Epochs: 40, Seed: 1} }

// Name implements ml.Classifier.
func (s *SVM) Name() string { return "SVM" }

// Train implements ml.Classifier.
func (s *SVM) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	if s.Lambda <= 0 {
		s.Lambda = 1e-4
	}
	if s.Epochs <= 0 {
		s.Epochs = 40
	}
	s.k, s.dim = numClasses, dim
	s.scale = fitScaler(x)
	z := s.scale.applyAll(x)

	s.w = make([][]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		s.w[c] = s.trainBinary(z, y, c)
	}
	mSVMEpochs.Add(int64(s.Epochs) * int64(numClasses))
	s.trained = true
	return nil
}

// trainBinary runs Pegasos for class c vs rest and returns w (dim+1).
func (s *SVM) trainBinary(z [][]float64, y []int, c int) []float64 {
	n, dim, lambda := len(z), s.dim, s.Lambda
	w := make([]float64, dim+1)
	src := rng.New(s.Seed + uint64(c)*7919)
	t := 0
	for epoch := 0; epoch < s.Epochs; epoch++ {
		for i := 0; i < n; i++ {
			t++
			idx := src.Intn(n)
			label := -1.0
			if y[idx] == c {
				label = 1.0
			}
			eta := 1 / (lambda * float64(t))
			row := z[idx][:dim]
			margin := w[dim]
			for j, v := range row {
				margin += w[j] * v
			}
			// Regularization shrink (weights only).
			shrink := 1 - eta*lambda
			for j := range w[:dim] {
				w[j] *= shrink
			}
			if label*margin < 1 {
				// eta*label*v is (eta*label)*v: one step per row.
				step := eta * label
				for j, v := range row {
					w[j] += step * v
				}
				w[dim] += step
			}
		}
	}
	return w
}

// decision returns the OvR margins for a standardized row.
func (s *SVM) decision(z []float64) []float64 {
	out := make([]float64, s.k)
	for c := 0; c < s.k; c++ {
		wc := s.w[c]
		m := wc[s.dim]
		for j, v := range z {
			m += wc[j] * v
		}
		out[c] = m
	}
	return out
}

// Predict implements ml.Classifier.
func (s *SVM) Predict(features []float64) int {
	if !s.trained {
		panic(ml.ErrNotTrained)
	}
	z := make([]float64, s.dim)
	s.scale.apply(features, z)
	return ml.ArgMax(s.decision(z))
}

// Weights returns the per-class OvR weight vectors (bias last).
func (s *SVM) Weights() [][]float64 {
	if !s.trained {
		panic(ml.ErrNotTrained)
	}
	return s.w
}

// Dim implements ml.Model.
func (s *SVM) Dim() int {
	if !s.trained {
		panic(ml.ErrNotTrained)
	}
	return s.dim
}

// NumClasses implements ml.Model.
func (s *SVM) NumClasses() int {
	if !s.trained {
		panic(ml.ErrNotTrained)
	}
	return s.k
}

// Scaler exposes the internal standardization statistics (means, stddevs)
// fitted at training time; hardware code generation folds them into the
// weights so the emitted datapath consumes raw features.
func (lg *Logistic) Scaler() (means, stddevs []float64) {
	if !lg.trained {
		panic(ml.ErrNotTrained)
	}
	return append([]float64{}, lg.scale.mean...), append([]float64{}, lg.scale.std...)
}

// Scaler exposes the internal standardization statistics (see Logistic).
func (s *SVM) Scaler() (means, stddevs []float64) {
	if !s.trained {
		panic(ml.ErrNotTrained)
	}
	return append([]float64{}, s.scale.mean...), append([]float64{}, s.scale.std...)
}
