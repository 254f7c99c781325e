// The compiled kernels. Each one mirrors its interpreter in
// internal/ml/* operation for operation — same loop order, same
// floating-point expressions — so labels and probabilities come out
// bit-identical. The speed comes from layout and bookkeeping, not from
// reassociating arithmetic: contiguous node/condition arrays instead of
// pointer-linked structs, mat.Matrix row views instead of [][]float64
// double dereferences, pooled scratch instead of per-call allocation,
// and argmax over raw scores instead of softmax on label-only paths.
package infer

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/mlp"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
)

// --- decision trees (J48, REPTree) ---

// flatNode is one tree node in the contiguous program array: the split
// threshold plus a word packing the two child indexes (24 bits each),
// the split attribute (8 bits) and the leaf label (8 bits). Sixteen
// bytes per node instead of a pointer-linked struct keeps twice as many
// nodes per cache line, which matters because the batch rows streaming
// through the same cache keep evicting the tree. Leaves self-loop
// (left == right == own index) so the grouped walk can advance every
// row unconditionally for a fixed number of levels; a node is a leaf
// iff its left child is itself (preorder children always follow their
// parent, so no internal node can self-reference).
type flatNode struct {
	thr  float64
	word uint64
}

const (
	nodeChildBits = 24
	nodeChildMask = 1<<nodeChildBits - 1
)

func packNode(attr, left, right, label int32) uint64 {
	return uint64(left) | uint64(right)<<nodeChildBits |
		uint64(attr)<<(2*nodeChildBits) | uint64(label)<<56
}

// treeGroup is how many rows the batch walk interleaves: each level
// issues treeGroup independent node loads, so the walk is bounded by
// cache throughput instead of one serial pointer-chase latency per row.
const treeGroup = 8

type treeKernel struct {
	nodes []flatNode
	depth int // levels the grouped walk runs: max leaf depth + 1
}

func compileTree(exported []tree.ExportedNode) (*treeKernel, error) {
	if len(exported) > nodeChildMask {
		return nil, fmt.Errorf("%w: tree has %d nodes, packed limit is %d",
			ErrNotCompilable, len(exported), nodeChildMask)
	}
	// Export preorder is kept as the array layout: a node's left child
	// is the next element, so half of every walk's steps land on an
	// adjacent node — usually the same cache line at four nodes per
	// line. (A breadth-first layout that compacts the top levels
	// measures slower here; the left-spine adjacency is worth more.)
	nodes := make([]flatNode, len(exported))
	for i, e := range exported {
		if e.Leaf {
			if e.Label > 0xFF {
				return nil, fmt.Errorf("%w: tree label %d exceeds packed limit 255",
					ErrNotCompilable, e.Label)
			}
			nodes[i] = flatNode{word: packNode(0, int32(i), int32(i), int32(e.Label))}
			continue
		}
		if e.Attr > 0xFF {
			return nil, fmt.Errorf("%w: tree split attribute %d exceeds packed limit 255",
				ErrNotCompilable, e.Attr)
		}
		nodes[i] = flatNode{
			thr:  e.Thr,
			word: packNode(int32(e.Attr), int32(e.Left), int32(e.Right), 0),
		}
	}
	// Bound the grouped walk by the deepest leaf. Export order is
	// preorder, so children always follow their parent and one forward
	// pass settles every depth.
	depth := make([]int32, len(exported))
	maxD := int32(0)
	for i, e := range exported {
		if depth[i] > maxD {
			maxD = depth[i]
		}
		if !e.Leaf {
			depth[e.Left] = depth[i] + 1
			depth[e.Right] = depth[i] + 1
		}
	}
	return &treeKernel{nodes: nodes, depth: int(maxD) + 1}, nil
}

// predictOne is the scalar walk with early exit at the leaf — the
// single-window path online.Monitor rides.
func (k *treeKernel) predictOne(x []float64) int {
	nodes := k.nodes
	idx := int32(0)
	for {
		n := &nodes[idx]
		w := n.word
		l := int32(w & nodeChildMask)
		if l == idx {
			return int(w >> 56)
		}
		if x[w>>(2*nodeChildBits)&0xFF] <= n.thr {
			idx = l
		} else {
			idx = int32(w >> nodeChildBits & nodeChildMask)
		}
	}
}

func (k *treeKernel) predict(dst []int, X [][]float64, _ *scratch) {
	nodes := k.nodes
	maxD := k.depth
	r := 0
	// Interleaved walk: treeGroup rows advance one level per pass, so
	// the per-row node loads overlap instead of serializing into one
	// pointer-chase latency chain per row. Rows that reach their leaf
	// early spin harmlessly on the self-loop; the moved mask ends the
	// group as soon as every lane has parked. (A lane-refill variant
	// that retires parked rows and hands the lane the next batch row
	// measures ~10% slower here — the retire-scan bookkeeping costs
	// more than the wasted self-loop levels.)
	for ; r+treeGroup <= len(X); r += treeGroup {
		var idx [treeGroup]int32
		xs := X[r : r+treeGroup : r+treeGroup]
		for d := 0; d < maxD; d++ {
			moved := int32(0)
			for g := 0; g < treeGroup; g++ {
				n := &nodes[idx[g]]
				// Unpacking both children into registers lets the compiler
				// lower the select to a conditional move: the split branch
				// is data-dependent (~coin-flip on noisy HPC data), so a
				// mispredicted jump per level would dominate the walk.
				w := n.word
				l := int32(w & nodeChildMask)
				rgt := int32(w >> nodeChildBits & nodeChildMask)
				next := rgt
				if xs[g][w>>(2*nodeChildBits)&0xFF] <= n.thr {
					next = l
				}
				moved |= next ^ idx[g]
				idx[g] = next
			}
			if moved == 0 {
				break // every lane is parked at its leaf
			}
		}
		for g := 0; g < treeGroup; g++ {
			dst[r+g] = int(nodes[idx[g]].word >> 56)
		}
	}
	for ; r < len(X); r++ {
		dst[r] = k.predictOne(X[r])
	}
}

// --- OneR ---

type onerKernel struct {
	attr       int
	thresholds []float64
	labels     []int
	fallback   int
}

func compileOneR(o *oner.OneR) *onerKernel {
	attr, thresholds, labels := o.Rule()
	return &onerKernel{attr: attr, thresholds: thresholds, labels: labels, fallback: o.Fallback()}
}

func (k *onerKernel) predict(dst []int, X [][]float64, _ *scratch) {
	for r, x := range X {
		if k.attr >= len(x) {
			dst[r] = k.fallback
			continue
		}
		idx := sort.SearchFloat64s(k.thresholds, x[k.attr])
		if idx >= len(k.labels) {
			idx = len(k.labels) - 1
		}
		dst[r] = k.labels[idx]
	}
}

// --- JRip ---

// flatCond is one threshold literal; le selects <= versus >.
type flatCond struct {
	thr  float64
	attr int32
	le   bool
}

// ruleView is one rule: a pre-sliced view into the kernel's contiguous
// condition array plus its label. Building the views at compile time
// keeps the per-row loop free of subslice construction.
type ruleView struct {
	conds []flatCond
	label int32
}

type jripKernel struct {
	conds        []flatCond // contiguous backing for every rule's literals
	rules        []ruleView
	defaultLabel int
}

func compileJRip(j *rules.JRip) *jripKernel {
	k := &jripKernel{defaultLabel: j.DefaultLabel()}
	learned := j.Rules()
	for _, r := range learned {
		for _, c := range r.Conds {
			k.conds = append(k.conds, flatCond{thr: c.Thr, attr: int32(c.Attr), le: c.Op == 'l'})
		}
	}
	off := 0
	for _, r := range learned {
		k.rules = append(k.rules, ruleView{
			conds: k.conds[off : off+len(r.Conds) : off+len(r.Conds)],
			label: int32(r.Label),
		})
		off += len(r.Conds)
	}
	return k
}

func (k *jripKernel) predict(dst []int, X [][]float64, _ *scratch) {
	for r, x := range X {
		label := k.defaultLabel
		for i := range k.rules {
			ru := &k.rules[i]
			matched := true
			for _, c := range ru.conds {
				// A literal fails where rules.Condition.Matches is false:
				// written as negated matches, so a NaN fails both forms.
				v := x[c.attr]
				if c.le {
					if !(v <= c.thr) {
						matched = false
						break
					}
				} else if !(v > c.thr) {
					matched = false
					break
				}
			}
			if matched {
				label = int(ru.label)
				break
			}
		}
		dst[r] = label
	}
}

// --- Logistic / SVM (fused standardize + MAC over mat rows) ---

// linearModel is the shared introspection surface of the dense linear
// models, the same one internal/hw's CompileLinear consumes.
type linearModel interface {
	Weights() [][]float64
	Scaler() (means, stddevs []float64)
}

type denseKernel struct {
	w         *mat.Matrix // classes x (dim+1), bias last
	wr        [][]float64 // per-class row views into w, fixed at compile
	mean, std []float64
	classes   int
	dim       int
	withProba bool // Logistic softmax; SVM margins have no Proba
}

func compileDense(m linearModel, withProba bool) *denseKernel {
	rows := m.Weights()
	mean, std := m.Scaler()
	w := mat.NewMatrix(len(rows), len(rows[0]))
	wr := make([][]float64, len(rows))
	for c, wc := range rows {
		wr[c] = w.Row(c)
		copy(wr[c], wc)
	}
	return &denseKernel{
		w: w, wr: wr, mean: mean, std: std,
		classes: len(rows), dim: len(mean), withProba: withProba,
	}
}

// score computes the raw class score (pre-softmax logit / OvR margin)
// exactly as linear.Logistic.softmax and linear.SVM.decision do: bias
// first, then the standardized dot product in ascending feature order.
func (k *denseKernel) score(c int, z []float64) float64 {
	wc := k.wr[c]
	s := wc[len(z)]
	for j, v := range z {
		s += wc[j] * v
	}
	return s
}

func (k *denseKernel) standardize(x, z []float64) {
	for j, v := range x {
		z[j] = (v - k.mean[j]) / k.std[j]
	}
}

func (k *denseKernel) predict(dst []int, X [][]float64, s *scratch) {
	z := s.z[:k.dim]
	for r, x := range X {
		k.standardize(x, z)
		best, bestS := 0, k.score(0, z)
		for c := 1; c < k.classes; c++ {
			if sc := k.score(c, z); sc > bestS {
				best, bestS = c, sc
			}
		}
		dst[r] = best
	}
}

func (k *denseKernel) classify(labels []int, proba [][]float64, X [][]float64, s *scratch) {
	z := s.z[:k.dim]
	for r, x := range X {
		k.standardize(x, z)
		out := proba[r]
		for c := range out {
			out[c] = k.score(c, z)
		}
		if labels != nil {
			labels[r] = ml.ArgMax(out) // first max, as predict's running max
		}
		softmax(out)
	}
}

// hasProba lets Program.Proba distinguish Logistic (softmax) from SVM
// (margins only) even though both compile to denseKernel.
func (k *denseKernel) hasProba() bool { return k.withProba }

// --- NaiveBayes ---

type bayesKernel struct {
	priors       []float64
	mean         *mat.Matrix // classes x dim
	c1           *mat.Matrix // -0.5*log(2*pi*var), hoisted per class/attr
	c2           *mat.Matrix // 2*var, hoisted divisor
	meanR        [][]float64 // per-class row views, fixed at compile
	c1R, c2R     [][]float64
	classes, dim int
	logTransform bool
}

func compileBayes(nb *bayes.NaiveBayes) *bayesKernel {
	priors, means, vars := nb.Params()
	classes, dim := len(means), len(means[0])
	k := &bayesKernel{
		priors:  append([]float64{}, priors...),
		mean:    mat.NewMatrix(classes, dim),
		c1:      mat.NewMatrix(classes, dim),
		c2:      mat.NewMatrix(classes, dim),
		meanR:   make([][]float64, classes),
		c1R:     make([][]float64, classes),
		c2R:     make([][]float64, classes),
		classes: classes, dim: dim,
		logTransform: nb.LogTransform,
	}
	for c := 0; c < classes; c++ {
		mc, c1c, c2c := k.mean.Row(c), k.c1.Row(c), k.c2.Row(c)
		k.meanR[c], k.c1R[c], k.c2R[c] = mc, c1c, c2c
		for j, va := range vars[c] {
			mc[j] = means[c][j]
			// The same expressions bayes.logJoint evaluates per call,
			// computed once: identical floats, a log and a multiply saved
			// per class/attr/row.
			c1c[j] = -0.5 * math.Log(2*math.Pi*va)
			c2c[j] = 2 * va
		}
	}
	return k
}

// transform mirrors bayes.NaiveBayes.transform.
func (k *bayesKernel) transform(z, x []float64) {
	if !k.logTransform {
		copy(z, x)
		return
	}
	for j, v := range x {
		if v < 0 {
			z[j] = -math.Log1p(-v)
		} else {
			z[j] = math.Log1p(v)
		}
	}
}

// logJoint accumulates the class-c log posterior exactly as
// bayes.logJoint does: s += (-0.5*log(2*pi*va)) - d*d/(2*va), with both
// parenthesized terms precomputed.
func (k *bayesKernel) logJoint(c int, z []float64) float64 {
	mc, c1c, c2c := k.meanR[c], k.c1R[c], k.c2R[c]
	s := k.priors[c]
	for j, v := range z {
		d := v - mc[j]
		s += c1c[j] - d*d/c2c[j]
	}
	return s
}

func (k *bayesKernel) predict(dst []int, X [][]float64, s *scratch) {
	z := s.z[:k.dim]
	for r, x := range X {
		k.transform(z, x)
		best, bestS := 0, k.logJoint(0, z)
		for c := 1; c < k.classes; c++ {
			if sc := k.logJoint(c, z); sc > bestS {
				best, bestS = c, sc
			}
		}
		dst[r] = best
	}
}

func (k *bayesKernel) classify(labels []int, proba [][]float64, X [][]float64, s *scratch) {
	z := s.z[:k.dim]
	for r, x := range X {
		k.transform(z, x)
		out := proba[r]
		for c := range out {
			out[c] = k.logJoint(c, z)
		}
		if labels != nil {
			labels[r] = ml.ArgMax(out) // first max, as predict's running max
		}
		softmax(out)
	}
}

// softmax turns one row's class scores into the distribution the
// interpreted Proba methods return: shift by the largest score,
// exponentiate and normalize, in ascending class order. NaN scores
// never become the shift, so they poison the row as they do there.
func softmax(out []float64) {
	maxS := math.Inf(-1)
	for _, sc := range out {
		if sc > maxS {
			maxS = sc
		}
	}
	sum := 0.0
	for c, sc := range out {
		e := 1.0 // exp(±0) is exactly 1, so the max class skips its exp
		if d := sc - maxS; d != 0 {
			e = math.Exp(d)
		}
		out[c] = e
		sum += e
	}
	for c := range out {
		out[c] /= sum
	}
}

// --- MLP ---

type mlpKernel struct {
	w1                   *mat.Matrix // hidden x (dim+1), bias last
	w2                   *mat.Matrix // classes x (hidden+1), bias last
	w1r, w2r             [][]float64 // per-unit row views, fixed at compile
	mean, sd             []float64
	dim, hidden, classes int
}

func compileMLP(m *mlp.MLP) *mlpKernel {
	w1, w2 := m.Weights()
	mean, sd := m.Scaler()
	dim, hidden, classes := m.Topology()
	k := &mlpKernel{
		w1: mat.NewMatrix(hidden, dim+1), w2: mat.NewMatrix(classes, hidden+1),
		w1r: make([][]float64, hidden), w2r: make([][]float64, classes),
		mean: append([]float64{}, mean...), sd: append([]float64{}, sd...),
		dim: dim, hidden: hidden, classes: classes,
	}
	for j, row := range w1 {
		k.w1r[j] = k.w1.Row(j)
		copy(k.w1r[j], row)
	}
	for c, row := range w2 {
		k.w2r[c] = k.w2.Row(c)
		copy(k.w2r[c], row)
	}
	return k
}

// forward mirrors mlp.forward up to the output scores: standardize,
// sigmoid hidden layer, raw class logits into the caller's out (which
// the proba path softmaxes and the label path argmaxes directly).
func (k *mlpKernel) hiddenLayer(x []float64, s *scratch) (z, h []float64) {
	z, h = s.z[:k.dim], s.h[:k.hidden]
	for j, v := range x {
		z[j] = (v - k.mean[j]) / k.sd[j]
	}
	for j, wj := range k.w1r {
		sum := wj[len(z)]
		for i, v := range z {
			sum += wj[i] * v
		}
		h[j] = 1 / (1 + math.Exp(-sum))
	}
	return z, h
}

func (k *mlpKernel) outScore(c int, h []float64) float64 {
	wc := k.w2r[c]
	s := wc[len(h)]
	for j, v := range h {
		s += wc[j] * v
	}
	return s
}

// hidden4 runs the hidden layer for the four rows X[0..3] into the four
// activation buffers hs returns. Each dot product must
// stay a strictly ordered add chain (bit-equality), but different rows'
// chains are independent, so blocking keeps four FP accumulators in
// flight, amortizes the weight-row loads, and lets exp4 interleave the
// four sigmoids. scratch z/h are sized 4*dim and 4*hidden for the four
// standardize/activation buffers.
func (k *mlpKernel) hidden4(X [][]float64, s *scratch) {
	dim := k.dim
	mean, sd := k.mean[:dim], k.sd[:dim]
	z0, z1, z2, z3 := s.z[:dim], s.z[dim:2*dim], s.z[2*dim:3*dim], s.z[3*dim:4*dim]
	z1, z2, z3 = z1[:dim], z2[:dim], z3[:dim]
	h0, h1, h2, h3 := k.hs(s)
	x0, x1, x2, x3 := X[0][:dim], X[1][:dim], X[2][:dim], X[3][:dim]
	x1, x2, x3 = x1[:dim], x2[:dim], x3[:dim]
	for j := range x0 {
		m, d := mean[j], sd[j]
		z0[j] = (x0[j] - m) / d
		z1[j] = (x1[j] - m) / d
		z2[j] = (x2[j] - m) / d
		z3[j] = (x3[j] - m) / d
	}
	for j, wj := range k.w1r {
		wj = wj[:dim+1]
		b := wj[dim]
		s0, s1, s2, s3 := b, b, b, b
		for i, v := range z0 {
			w := wj[i]
			s0 += w * v
			s1 += w * z1[i]
			s2 += w * z2[i]
			s3 += w * z3[i]
		}
		var e [4]float64
		exp4(&e, -s0, -s1, -s2, -s3)
		h0[j] = 1 / (1 + e[0])
		h1[j] = 1 / (1 + e[1])
		h2[j] = 1 / (1 + e[2])
		h3[j] = 1 / (1 + e[3])
	}
}

// hs returns the scratch's four hidden-activation buffers.
func (k *mlpKernel) hs(s *scratch) (h0, h1, h2, h3 []float64) {
	hidden := k.hidden
	h0, h1, h2, h3 = s.h[:hidden], s.h[hidden:2*hidden], s.h[2*hidden:3*hidden], s.h[3*hidden:4*hidden]
	return h0, h1[:len(h0)], h2[:len(h0)], h3[:len(h0)]
}

func (k *mlpKernel) predict(dst []int, X [][]float64, s *scratch) {
	hidden := k.hidden
	h0, h1, h2, h3 := k.hs(s)
	r := 0
	for ; r+4 <= len(X); r += 4 {
		k.hidden4(X[r:r+4], s)
		b0, b1, b2, b3 := 0, 0, 0, 0
		var t0, t1, t2, t3 float64
		for c, wc := range k.w2r {
			wc = wc[:hidden+1]
			b := wc[hidden]
			s0, s1, s2, s3 := b, b, b, b
			for j, v := range h0 {
				w := wc[j]
				s0 += w * v
				s1 += w * h1[j]
				s2 += w * h2[j]
				s3 += w * h3[j]
			}
			// c == 0 seeds the running max with the class-0 score, which
			// keeps first-max tie-breaking (and NaN propagation) identical
			// to ml.ArgMax over the softmax distribution.
			if c == 0 || s0 > t0 {
				b0, t0 = c, s0
			}
			if c == 0 || s1 > t1 {
				b1, t1 = c, s1
			}
			if c == 0 || s2 > t2 {
				b2, t2 = c, s2
			}
			if c == 0 || s3 > t3 {
				b3, t3 = c, s3
			}
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = b0, b1, b2, b3
	}
	for ; r < len(X); r++ {
		_, h := k.hiddenLayer(X[r], s)
		best, bestS := 0, k.outScore(0, h)
		for c := 1; c < k.classes; c++ {
			if sc := k.outScore(c, h); sc > bestS {
				best, bestS = c, sc
			}
		}
		dst[r] = best
	}
}

func (k *mlpKernel) classify(labels []int, proba [][]float64, X [][]float64, s *scratch) {
	hidden := k.hidden
	h0, h1, h2, h3 := k.hs(s)
	r := 0
	for ; r+4 <= len(X); r += 4 {
		k.hidden4(X[r:r+4], s)
		p0, p1, p2, p3 := proba[r], proba[r+1], proba[r+2], proba[r+3]
		for c, wc := range k.w2r {
			wc = wc[:hidden+1]
			b := wc[hidden]
			s0, s1, s2, s3 := b, b, b, b
			for j, v := range h0 {
				w := wc[j]
				s0 += w * v
				s1 += w * h1[j]
				s2 += w * h2[j]
				s3 += w * h3[j]
			}
			p0[c], p1[c], p2[c], p3[c] = s0, s1, s2, s3
		}
	}
	for ; r < len(X); r++ {
		_, h := k.hiddenLayer(X[r], s)
		out := proba[r]
		for c := range out {
			out[c] = k.outScore(c, h)
		}
	}
	// Every row's logits are in place: label by their first max, as
	// predict does, then softmax them.
	for r, out := range proba[:len(X)] {
		if labels != nil {
			labels[r] = ml.ArgMax(out)
		}
		softmax(out)
	}
}
