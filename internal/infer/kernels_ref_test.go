package infer

import "math"

// refSoftmax is the reference for softmax: the shared softmax as it was
// written before the max class skipped its exp, one math.Exp per class.
// The differential test requires softmax to match it bit for bit.
func refSoftmax(out []float64) {
	maxS := math.Inf(-1)
	for _, sc := range out {
		if sc > maxS {
			maxS = sc
		}
	}
	sum := 0.0
	for c, sc := range out {
		out[c] = math.Exp(sc - maxS)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}
