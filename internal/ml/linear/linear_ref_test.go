package linear

import (
	"math"

	"repro/internal/rng"
)

// refLogistic and refSVM are the reference models for Logistic.Train and
// SVM.Train: the trainers as they were written before their hot loops
// were tuned, with the step products scale*g*v and eta*label*v formed
// inside the weight loops and an exp for every class of the softmax. They
// are slow and plainly correct; the differential tests train them and the
// package's models on the same data and require every weight bit for
// bit.
type refLogistic struct {
	Logistic
}

func (lg *refLogistic) Train(x [][]float64, y []int, numClasses int) {
	dim := len(x[0])
	lg.fillDefaults()
	lg.k, lg.dim = numClasses, dim
	lg.scale = fitScaler(x)
	lg.w = make([][]float64, numClasses)
	for c := range lg.w {
		lg.w[c] = make([]float64, dim+1)
	}

	n := len(x)
	z := make([][]float64, n)
	for i := range x {
		z[i] = make([]float64, dim)
		lg.scale.apply(x[i], z[i])
	}

	src := rng.New(lg.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, numClasses)
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
				for c := 0; c < numClasses; c++ {
					g := sw * probs[c]
					if c == y[idx] {
						g -= sw
					}
					wc := lg.w[c]
					for j, v := range row {
						wc[j] -= scale * g * v
					}
					wc[dim] -= scale * g
				}
			}
			if lg.L2 > 0 {
				shrink := 1 - lr*lg.L2
				for c := range lg.w {
					for j := 0; j < dim; j++ {
						lg.w[c][j] *= shrink
					}
				}
			}
		}
	}
}

func (lg *refLogistic) softmax(z []float64, out []float64) {
	maxS := math.Inf(-1)
	for c := 0; c < lg.k; c++ {
		wc := lg.w[c]
		s := wc[lg.dim]
		for j, v := range z {
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

func (lg *refLogistic) Proba(features []float64) []float64 {
	z := make([]float64, lg.dim)
	lg.scale.apply(features, z)
	out := make([]float64, lg.k)
	lg.softmax(z, out)
	return out
}

type refSVM struct {
	SVM
}

func (s *refSVM) Train(x [][]float64, y []int, numClasses int) {
	dim := len(x[0])
	if s.Lambda <= 0 {
		s.Lambda = 1e-4
	}
	if s.Epochs <= 0 {
		s.Epochs = 40
	}
	s.k, s.dim = numClasses, dim
	s.scale = fitScaler(x)
	n := len(x)
	z := make([][]float64, n)
	for i := range x {
		z[i] = make([]float64, dim)
		s.scale.apply(x[i], z[i])
	}

	s.w = make([][]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		s.w[c] = s.trainBinary(z, y, c)
	}
}

func (s *refSVM) trainBinary(z [][]float64, y []int, c int) []float64 {
	n := len(z)
	w := make([]float64, s.dim+1)
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
			eta := 1 / (s.Lambda * float64(t))
			row := z[idx]
			margin := w[s.dim]
			for j, v := range row {
				margin += w[j] * v
			}
			shrink := 1 - eta*s.Lambda
			for j := 0; j < s.dim; j++ {
				w[j] *= shrink
			}
			if label*margin < 1 {
				for j, v := range row {
					w[j] += eta * label * v
				}
				w[s.dim] += eta * label
			}
		}
	}
	return w
}
