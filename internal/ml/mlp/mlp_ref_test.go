package mlp

import (
	"math"

	"repro/internal/rng"
)

// refMLP is the reference model for MLP.Train and MLP.forward: the
// trainer as it was written before its hot loops were tuned, with one
// []float64 per weight row, the step products lr*dOut[c]*h[j] and
// lr*dHid[j]*v formed inside the weight loops, one hidden unit per sweep
// over the input, and an exp for every class of the softmax. It is slow
// and plainly correct; the differential test trains it and MLP on the
// same data and requires every weight bit for bit.
type refMLP struct {
	Hidden   int
	Epochs   int
	LR       float64
	Momentum float64
	Seed     uint64

	w1, w2   [][]float64
	mean, sd []float64
	k, dim   int
	hidden   int
}

func (m *refMLP) Train(x [][]float64, y []int, numClasses int) {
	dim := len(x[0])
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
	z := make([][]float64, len(x))
	for i, row := range x {
		z[i] = make([]float64, dim)
		for j, v := range row {
			z[i][j] = (v - m.mean[j]) / m.sd[j]
		}
	}

	src := rng.New(m.Seed)
	initW := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		scale := 1 / math.Sqrt(float64(cols))
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = src.Normal(0, scale)
			}
		}
		return w
	}
	m.w1 = initW(m.hidden, dim+1)
	m.w2 = initW(numClasses, m.hidden+1)
	v1 := refInitZero(m.hidden, dim+1)
	v2 := refInitZero(numClasses, m.hidden+1)

	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	h := make([]float64, m.hidden)
	out := make([]float64, numClasses)
	dOut := make([]float64, numClasses)
	dHid := make([]float64, m.hidden)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := m.LR / (1 + 0.002*float64(epoch))
		for _, idx := range order {
			row := z[idx]
			m.forward(row, h, out)
			for c := range dOut {
				dOut[c] = out[c]
				if c == y[idx] {
					dOut[c] -= 1
				}
			}
			for j := 0; j < m.hidden; j++ {
				g := 0.0
				for c := 0; c < numClasses; c++ {
					g += dOut[c] * m.w2[c][j]
				}
				dHid[j] = g * h[j] * (1 - h[j])
			}
			for c := 0; c < numClasses; c++ {
				for j := 0; j < m.hidden; j++ {
					v2[c][j] = m.Momentum*v2[c][j] - lr*dOut[c]*h[j]
					m.w2[c][j] += v2[c][j]
				}
				v2[c][m.hidden] = m.Momentum*v2[c][m.hidden] - lr*dOut[c]
				m.w2[c][m.hidden] += v2[c][m.hidden]
			}
			for j := 0; j < m.hidden; j++ {
				for i2, v := range row {
					v1[j][i2] = m.Momentum*v1[j][i2] - lr*dHid[j]*v
					m.w1[j][i2] += v1[j][i2]
				}
				v1[j][dim] = m.Momentum*v1[j][dim] - lr*dHid[j]
				m.w1[j][dim] += v1[j][dim]
			}
		}
	}
}

func refInitZero(rows, cols int) [][]float64 {
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
	}
	return w
}

func (m *refMLP) forward(z []float64, h, out []float64) {
	for j := 0; j < m.hidden; j++ {
		wj := m.w1[j]
		s := wj[m.dim]
		for i, v := range z {
			s += wj[i] * v
		}
		h[j] = sigmoid(s)
	}
	maxS := math.Inf(-1)
	for c := 0; c < m.k; c++ {
		wc := m.w2[c]
		s := wc[m.hidden]
		for j, v := range h {
			s += wc[j] * v
		}
		out[c] = s
		if s > maxS {
			maxS = s
		}
	}
	sum := 0.0
	for c := range out {
		out[c] = math.Exp(out[c] - maxS)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

func (m *refMLP) Proba(features []float64) []float64 {
	z := make([]float64, m.dim)
	for j, v := range features {
		z[j] = (v - m.mean[j]) / m.sd[j]
	}
	h := make([]float64, m.hidden)
	out := make([]float64, m.k)
	m.forward(z, h, out)
	return out
}
