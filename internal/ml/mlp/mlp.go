// Package mlp implements a multilayer perceptron (WEKA's
// MultilayerPerceptron): one sigmoid hidden layer, softmax output,
// stochastic gradient descent with momentum that updates the weights
// after every training row, and internal feature standardization.
// WEKA's default hidden size 'a' = (attributes + classes) / 2 is the
// default here too.
package mlp

import (
	"math"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/rng"
)

// mEpochs counts SGD epochs across all MLP fits in the process.
var mEpochs = obs.GetCounter("ml.mlp_epochs")

// MLP is a one-hidden-layer perceptron classifier.
type MLP struct {
	// Hidden is the hidden layer width; 0 means (dim+classes)/2.
	Hidden int
	// Epochs over the training set (default 80).
	Epochs int
	// LR is the learning rate (default 0.3, WEKA's -L default).
	LR float64
	// Momentum (default 0.2, WEKA's -M default).
	Momentum float64
	// Seed controls weight init and shuffling.
	Seed uint64

	w1, w2   []float64 // [hidden][dim+1], [classes][hidden+1], row-major
	mean, sd []float64
	k, dim   int
	hidden   int
	trained  bool
}

// New returns an MLP with WEKA's default hyperparameters.
func New() *MLP { return &MLP{Epochs: 80, LR: 0.3, Momentum: 0.2, Seed: 1} }

// Name implements ml.Classifier.
func (m *MLP) Name() string { return "MLP" }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Train implements ml.Classifier.
func (m *MLP) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	if m.Epochs <= 0 {
		m.Epochs = 80
	}
	if m.LR <= 0 {
		m.LR = 0.3
	}
	if m.Momentum < 0 || m.Momentum >= 1 {
		m.Momentum = 0.2
	}
	m.k, m.dim = numClasses, dim
	m.hidden = m.Hidden
	if m.hidden <= 0 {
		m.hidden = (dim + numClasses) / 2
		if m.hidden < 2 {
			m.hidden = 2
		}
	}

	// Standardization statistics.
	m.mean = make([]float64, dim)
	m.sd = make([]float64, dim)
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			m.mean[j] += v
		}
	}
	for j := range m.mean {
		m.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - m.mean[j]
			m.sd[j] += d * d
		}
	}
	for j := range m.sd {
		m.sd[j] = math.Sqrt(m.sd[j] / n)
		if m.sd[j] == 0 {
			m.sd[j] = 1
		}
	}
	// The standardized rows, the weights and their momentum terms each
	// live in one contiguous array: row r of a layer with c columns is
	// [r*c, (r+1)*c).
	z := make([]float64, len(x)*dim)
	for i, row := range x {
		zi := z[i*dim : (i+1)*dim]
		for j, v := range row {
			zi[j] = (v - m.mean[j]) / m.sd[j]
		}
	}

	src := rng.New(m.Seed)
	initW := func(rows, cols int) []float64 {
		w := make([]float64, rows*cols)
		scale := 1 / math.Sqrt(float64(cols))
		for i := range w {
			w[i] = src.Normal(0, scale)
		}
		return w
	}
	n1, n2 := dim+1, m.hidden+1
	m.w1 = initW(m.hidden, n1)
	m.w2 = initW(numClasses, n2)
	w1, w2 := m.w1, m.w2
	v1 := make([]float64, len(w1))
	v2 := make([]float64, len(w2))

	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	h := make([]float64, m.hidden)
	out := make([]float64, numClasses)
	dOut := make([]float64, numClasses)
	dHid := make([]float64, m.hidden)
	mom := m.Momentum

	// The step products lr*dOut[c] and lr*dHid[j] are formed once per row.
	// Go evaluates lr*d*v as (lr*d)*v, so every update rounds exactly as
	// when the product was written out inside the weight loops.
	for epoch := 0; epoch < m.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := m.LR / (1 + 0.002*float64(epoch))
		for _, idx := range order {
			row := z[idx*dim : (idx+1)*dim]
			m.forward(row, h, out)
			for c := range dOut {
				dOut[c] = out[c]
				if c == y[idx] {
					dOut[c] -= 1
				}
			}
			// Hidden deltas, from the output weights before this row's update.
			for j := range dHid {
				g := 0.0
				for c, d := range dOut {
					g += d * w2[c*n2+j]
				}
				dHid[j] = g * h[j] * (1 - h[j])
			}
			// Update output layer.
			for c, d := range dOut {
				step := lr * d
				wc, vc := w2[c*n2:(c+1)*n2], v2[c*n2:(c+1)*n2]
				ws, vs := wc[:len(h)], vc[:len(h)]
				for j, hj := range h {
					vs[j] = mom*vs[j] - step*hj
					ws[j] += vs[j]
				}
				vc[len(h)] = mom*vc[len(h)] - step
				wc[len(h)] += vc[len(h)]
			}
			// Update hidden layer.
			for j, d := range dHid {
				step := lr * d
				wj, vj := w1[j*n1:(j+1)*n1], v1[j*n1:(j+1)*n1]
				ws, vs := wj[:len(row)], vj[:len(row)]
				for i, v := range row {
					vs[i] = mom*vs[i] - step*v
					ws[i] += vs[i]
				}
				vj[dim] = mom*vj[dim] - step
				wj[dim] += vj[dim]
			}
		}
	}
	mEpochs.Add(int64(m.Epochs))
	m.trained = true
	return nil
}

// forward computes hidden activations and softmax outputs for a
// standardized row. The hidden layer sums four units per sweep over the
// input; each sum still starts at the unit's bias and adds the inputs in
// order, so every activation is bit-identical to one unit at a time.
func (m *MLP) forward(z []float64, h, out []float64) {
	dim, n1 := m.dim, m.dim+1
	z = z[:dim]
	j := 0
	for ; j+4 <= m.hidden; j += 4 {
		w := m.w1[j*n1 : (j+4)*n1]
		r0, r1, r2, r3 := w[:len(z)], w[n1:][:len(z)], w[2*n1:][:len(z)], w[3*n1:][:len(z)]
		s0, s1, s2, s3 := w[dim], w[n1+dim], w[2*n1+dim], w[3*n1+dim]
		for i, v := range z {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		h[j], h[j+1], h[j+2], h[j+3] = sigmoid(s0), sigmoid(s1), sigmoid(s2), sigmoid(s3)
	}
	for ; j < m.hidden; j++ {
		w := m.w1[j*n1 : (j+1)*n1]
		w = w[:len(z)+1]
		s := w[dim]
		for i, v := range z {
			s += w[i] * v
		}
		h[j] = sigmoid(s)
	}
	n2 := m.hidden + 1
	maxS := math.Inf(-1)
	for c := range out {
		wc := m.w2[c*n2 : (c+1)*n2]
		wc = wc[:len(h)+1]
		s := wc[len(h)]
		for j, v := range h {
			s += wc[j] * v
		}
		out[c] = s
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
func (m *MLP) Predict(features []float64) int {
	return ml.ArgMax(m.Proba(features))
}

// Proba implements ml.ProbClassifier.
func (m *MLP) Proba(features []float64) []float64 {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	z := make([]float64, m.dim)
	for j, v := range features {
		z[j] = (v - m.mean[j]) / m.sd[j]
	}
	h := make([]float64, m.hidden)
	out := make([]float64, m.k)
	m.forward(z, h, out)
	return out
}

// Topology returns (inputs, hidden, outputs); the hardware cost model
// sizes the MAC arrays and sigmoid LUTs from it.
func (m *MLP) Topology() (in, hidden, out int) {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	return m.dim, m.hidden, m.k
}

// Dim implements ml.Model.
func (m *MLP) Dim() int {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	return m.dim
}

// NumClasses implements ml.Model.
func (m *MLP) NumClasses() int {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	return m.k
}

// Weights exposes the fitted layers for compilation: w1 is
// [hidden][dim+1] and w2 is [classes][hidden+1], biases last. The rows
// are views of the live model; callers must not mutate them. Each row's
// capacity ends at its length, so an append to a row copies it instead
// of overwriting the next.
func (m *MLP) Weights() (w1, w2 [][]float64) {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	return rowViews(m.w1, m.dim+1), rowViews(m.w2, m.hidden+1)
}

// rowViews splits a row-major matrix with the given column count into
// row views.
func rowViews(w []float64, cols int) [][]float64 {
	out := make([][]float64, len(w)/cols)
	for r := range out {
		out[r] = w[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// Scaler exposes the internal standardization statistics (means,
// stddevs) fitted at training time, mirroring linear.Logistic.Scaler.
func (m *MLP) Scaler() (means, stddevs []float64) {
	if !m.trained {
		panic(ml.ErrNotTrained)
	}
	return m.mean, m.sd
}
