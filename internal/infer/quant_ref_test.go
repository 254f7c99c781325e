package infer

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
)

// The reference quantized kernels: the int8/int16 programs as they were
// written before the comparison programs became the float64 kernels
// plus a capacity check, and before the MAC kernels shared one fold, one
// weight scaler and one width-generic accumulator. The rank-coded
// comparison kernels walk integer codes; each MAC kernel carries its own
// fold, scaler and int32/int64 copy of its loops. TestQuantMatchesReference
// requires every quantized program to label NaN-free rows as these do,
// with the same spec and integer MAC parameters, and
// TestQuantCapacityMatchesReference requires the capacity check to
// accept and reject thresholds as refBuildRankQ does.

// --- rank quantizer (comparison kernels) ---

// refRankQ codes feature j of a row as its rank among the model's own
// distinct split thresholds on j: code(x) = #[thresholds < x] computed
// by binary search. Because x <= t_k exactly when code(x) <= k, every
// threshold compare in the quantized walk decides identically to the
// float64 walk — rank coding is exact, not approximate.
type refRankQ struct {
	thr []float64 // all features' sorted thresholds, contiguous
	off []int32   // per-feature segment offsets, len dim+1
}

// refBuildRankQ collects the distinct thresholds per feature and checks
// they fit the width's code capacity (codes 0..n need n <= 2*half).
func refBuildRankQ(dim int, half int64, perFeature map[int][]float64) (*refRankQ, error) {
	q := &refRankQ{off: make([]int32, dim+1)}
	for j := 0; j < dim; j++ {
		ts := perFeature[j]
		sort.Float64s(ts)
		uniq := ts[:0]
		for i, t := range ts {
			if i == 0 || t != uniq[len(uniq)-1] {
				uniq = append(uniq, t)
			}
		}
		if int64(len(uniq)) > 2*half {
			return nil, fmt.Errorf("%w: %d distinct thresholds on feature %d, capacity %d",
				ErrQuantCapacity, len(uniq), j, 2*half)
		}
		q.thr = append(q.thr, uniq...)
		q.off[j+1] = int32(len(q.thr))
	}
	return q, nil
}

func (q *refRankQ) seg(j int) []float64 { return q.thr[q.off[j]:q.off[j+1]] }

// code returns the integer code of a model threshold on feature j; the
// threshold is one of the model's own, so the search finds it exactly.
func (q *refRankQ) code(j int, thr float64) int32 {
	return int32(sort.SearchFloat64s(q.seg(j), thr))
}

func (q *refRankQ) quantizeRow(x []float64, dst []int32) {
	for j, v := range x {
		dst[j] = int32(sort.SearchFloat64s(q.seg(j), v))
	}
}

// --- quantized tree walk (J48, REPTree) ---

// refQFlatNode mirrors flatNode with the threshold as an integer code; the
// word packing (children/attr/label) is identical.
type refQFlatNode struct {
	thr  int32
	word uint64
}

type refQTreeKernel struct {
	nodes []refQFlatNode
	depth int
	dim   int
	qz    *refRankQ
}

func refCompileQuantTree(exported []tree.ExportedNode, dim int, half int64) (*refQTreeKernel, error) {
	fl, err := compileTree(exported) // reuse packing + depth + limits
	if err != nil {
		return nil, err
	}
	perFeature := map[int][]float64{}
	for _, e := range exported {
		if !e.Leaf {
			perFeature[e.Attr] = append(perFeature[e.Attr], e.Thr)
		}
	}
	qz, err := refBuildRankQ(dim, half, perFeature)
	if err != nil {
		return nil, err
	}
	k := &refQTreeKernel{nodes: make([]refQFlatNode, len(fl.nodes)), depth: fl.depth, dim: dim, qz: qz}
	for i, e := range exported {
		k.nodes[i].word = fl.nodes[i].word
		if !e.Leaf {
			k.nodes[i].thr = qz.code(e.Attr, e.Thr)
		}
	}
	return k, nil
}

func (k *refQTreeKernel) predictOne(q []int32) int {
	nodes := k.nodes
	idx := int32(0)
	for {
		n := &nodes[idx]
		w := n.word
		l := int32(w & nodeChildMask)
		if l == idx {
			return int(w >> 56)
		}
		if q[w>>(2*nodeChildBits)&0xFF] <= n.thr {
			idx = l
		} else {
			idx = int32(w >> nodeChildBits & nodeChildMask)
		}
	}
}

func (k *refQTreeKernel) predict(dst []int, X [][]float64, s *scratch) {
	nodes := k.nodes
	maxD := k.depth
	dim := k.dim
	r := 0
	// Same interleaved CMOV walk as the float kernel, over integer codes:
	// treeGroup rows quantize into the scratch arena, then advance one
	// level per pass with the split compare lowered to an int32 cmp.
	for ; r+treeGroup <= len(X); r += treeGroup {
		for g := 0; g < treeGroup; g++ {
			k.qz.quantizeRow(X[r+g], s.qi[g*dim:(g+1)*dim])
		}
		var idx [treeGroup]int32
		for d := 0; d < maxD; d++ {
			moved := int32(0)
			for g := 0; g < treeGroup; g++ {
				n := &nodes[idx[g]]
				w := n.word
				l := int32(w & nodeChildMask)
				rgt := int32(w >> nodeChildBits & nodeChildMask)
				next := rgt
				if s.qi[g*dim+int(w>>(2*nodeChildBits)&0xFF)] <= n.thr {
					next = l
				}
				moved |= next ^ idx[g]
				idx[g] = next
			}
			if moved == 0 {
				break
			}
		}
		for g := 0; g < treeGroup; g++ {
			dst[r+g] = int(nodes[idx[g]].word >> 56)
		}
	}
	for ; r < len(X); r++ {
		k.qz.quantizeRow(X[r], s.qi[:dim])
		dst[r] = k.predictOne(s.qi[:dim])
	}
}

// --- quantized OneR ---

type refQOneRKernel struct {
	attr     int
	nthr     int // threshold count; codes 0..nthr index the interval table
	labels   []int
	fallback int
	qz       *refRankQ
}

func refCompileQuantOneR(o *oner.OneR, dim int, half int64) (*refQOneRKernel, error) {
	attr, thresholds, labels := o.Rule()
	per := map[int][]float64{}
	if attr < dim {
		per[attr] = append([]float64{}, thresholds...)
	}
	qz, err := refBuildRankQ(dim, half, per)
	if err != nil {
		return nil, err
	}
	return &refQOneRKernel{attr: attr, nthr: len(thresholds), labels: labels,
		fallback: o.Fallback(), qz: qz}, nil
}

func (k *refQOneRKernel) predict(dst []int, X [][]float64, _ *scratch) {
	for r, x := range X {
		if k.attr >= len(x) {
			dst[r] = k.fallback
			continue
		}
		// Rank code IS the interval index: the float path takes the first
		// threshold >= x, and code(x) = #[thresholds < x] is that index.
		idx := int(int32(sort.SearchFloat64s(k.qz.seg(k.attr), x[k.attr])))
		if idx >= len(k.labels) {
			idx = len(k.labels) - 1
		}
		dst[r] = k.labels[idx]
	}
}

// --- quantized JRip ---

// refQFlatCond mirrors flatCond with an integer code threshold.
type refQFlatCond struct {
	thr  int32
	attr int32
	le   bool
}

type refQRuleView struct {
	conds []refQFlatCond
	label int32
}

type refQJRipKernel struct {
	conds        []refQFlatCond
	rules        []refQRuleView
	defaultLabel int
	dim          int
	qz           *refRankQ
}

func refCompileQuantJRip(j *rules.JRip, dim int, half int64) (*refQJRipKernel, error) {
	learned := j.Rules()
	per := map[int][]float64{}
	for _, r := range learned {
		for _, c := range r.Conds {
			per[c.Attr] = append(per[c.Attr], c.Thr)
		}
	}
	qz, err := refBuildRankQ(dim, half, per)
	if err != nil {
		return nil, err
	}
	k := &refQJRipKernel{defaultLabel: j.DefaultLabel(), dim: dim, qz: qz}
	for _, r := range learned {
		for _, c := range r.Conds {
			k.conds = append(k.conds, refQFlatCond{
				thr: qz.code(c.Attr, c.Thr), attr: int32(c.Attr), le: c.Op == 'l'})
		}
	}
	off := 0
	for _, r := range learned {
		k.rules = append(k.rules, refQRuleView{
			conds: k.conds[off : off+len(r.Conds) : off+len(r.Conds)],
			label: int32(r.Label),
		})
		off += len(r.Conds)
	}
	return k, nil
}

func (k *refQJRipKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		label := k.defaultLabel
		for i := range k.rules {
			ru := &k.rules[i]
			matched := true
			for _, c := range ru.conds {
				v := qi[c.attr]
				if c.le {
					if v > c.thr {
						matched = false
						break
					}
				} else if v <= c.thr {
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

// --- quantized dense linear (Logistic, SVM) ---

// refQDenseKernel is the integer MAC twin of denseKernel: standardizer and
// input grid folded into per-class int weights, a flat contiguous
// weight array walked with a counted loop, and per-class (m, sh)
// requant multipliers aligning every class onto one comparable score
// scale despite per-class weight grids.
type refQDenseKernel struct {
	qz      *affineQ
	w       []int32 // classes × dim, row-major
	m, b    []int64
	sh      []uint
	pre     uint
	classes int
	dim     int
	wide    bool // int64 accumulators (Int16); else int32 (Int8)
}

func refCompileQuantDense(mdl linearModel, prec Precision, calib [][]float64) (*refQDenseKernel, error) {
	w := mdl.Weights()
	mean, std := mdl.Scaler()
	dim, classes := len(mean), len(w)
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	qz, err := calibrateAffine(calib, dim, half, false)
	if err != nil {
		return nil, err
	}
	// Fold the standardizer and the input grid into effective weights,
	// exactly as hw.CompileLinear folds standardization into the netlist:
	// with z = zero + q·step, w'·(x-mean)/std + b becomes eff·q + biasR.
	eff := make([][]float64, classes)
	biasR := make([]float64, classes)
	for c := 0; c < classes; c++ {
		eff[c] = make([]float64, dim)
		b := w[c][dim]
		for j := 0; j < dim; j++ {
			wj := w[c][j] / std[j]
			b += wj * (qz.zero[j] - mean[j])
			eff[c][j] = wj * qz.step[j]
		}
		biasR[c] = b
	}
	k := &refQDenseKernel{
		qz: qz, w: make([]int32, classes*dim),
		m: make([]int64, classes), b: make([]int64, classes), sh: make([]uint, classes),
		classes: classes, dim: dim, wide: prec == Int16,
	}
	scoreBound := 0.0
	S := make([]float64, classes)
	for c := 0; c < classes; c++ {
		mx, sb := 0.0, math.Abs(biasR[c])
		for _, e := range eff[c] {
			if a := math.Abs(e); a > mx {
				mx = a
			}
			sb += math.Abs(e) * float64(half)
		}
		if mx == 0 {
			mx = 1
		}
		S[c] = wmax / mx
		for j := 0; j < dim; j++ {
			k.w[c*dim+j] = int32(math.Round(eff[c][j] * S[c]))
		}
		if sb > scoreBound {
			scoreBound = sb
		}
	}
	if scoreBound <= 0 {
		scoreBound = 1
	}
	G := float64(int64(1)<<40) / scoreBound
	k.pre = preShift(float64(dim) * wmax * float64(half))
	for c := 0; c < classes; c++ {
		k.m[c], k.sh[c] = requantPair(G * float64(int64(1)<<k.pre) / S[c])
		k.b[c] = int64(math.Round(biasR[c] * G))
	}
	// An Int8 accumulator must hold dim·127·127; force the wide path for
	// feature counts that could overflow 32 bits (none in this system).
	if !k.wide && float64(dim)*wmax*float64(half) > float64(math.MaxInt32) {
		k.wide = true
	}
	return k, nil
}

func (k *refQDenseKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		if k.wide {
			dst[r] = k.argmax64(qi)
		} else {
			dst[r] = k.argmax32(qi)
		}
	}
}

func (k *refQDenseKernel) argmax32(q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		wc := k.w[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var acc int32
		for j, w := range wc {
			acc += w * q[j]
		}
		s := (int64(acc)>>k.pre)*k.m[c]>>k.sh[c] + k.b[c]
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

func (k *refQDenseKernel) argmax64(q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		wc := k.w[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var acc int64
		for j, w := range wc {
			acc += int64(w) * int64(q[j])
		}
		s := (acc>>k.pre)*k.m[c]>>k.sh[c] + k.b[c]
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

// --- quantized NaiveBayes ---

// refQBayesKernel lowers the Gaussian log joint to a quadratic integer MAC:
// per class, logJoint = A + Σ_j (U_j·q_j + V_j·q_j²) after expanding the
// per-feature quadratic around the grid. U (linear) and V (quadratic)
// terms span very different magnitudes — V carries a step² factor — so
// each gets its own per-class scale and requant multiplier; a single
// shared scale would round every V to zero and silently degrade the
// model to linear.
type refQBayesKernel struct {
	qz         *affineQ
	u, v       []int32 // classes × dim each, row-major
	mu, mv, b  []int64
	shu, shv   []uint
	preU, preV uint
	classes    int
	dim        int
	wide       bool
}

func refCompileQuantBayes(nb *bayes.NaiveBayes, prec Precision, calib [][]float64) (*refQBayesKernel, error) {
	priors, means, vars := nb.Params()
	classes, dim := len(means), len(means[0])
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	qz, err := calibrateAffine(calib, dim, half, nb.LogTransform)
	if err != nil {
		return nil, err
	}
	U := make([][]float64, classes)
	V := make([][]float64, classes)
	A := make([]float64, classes)
	for c := 0; c < classes; c++ {
		U[c] = make([]float64, dim)
		V[c] = make([]float64, dim)
		A[c] = priors[c]
		for j := 0; j < dim; j++ {
			va := vars[c][j]
			gamma := -1.0 / (2 * va)
			beta := means[c][j] / va
			alpha := -0.5*math.Log(2*math.Pi*va) - means[c][j]*means[c][j]/(2*va)
			z0 := qz.zero[j]
			A[c] += alpha + beta*z0 + gamma*z0*z0
			U[c][j] = (beta + 2*gamma*z0) * qz.step[j]
			V[c][j] = gamma * qz.step[j] * qz.step[j]
		}
	}
	k := &refQBayesKernel{
		qz: qz, u: make([]int32, classes*dim), v: make([]int32, classes*dim),
		mu: make([]int64, classes), mv: make([]int64, classes), b: make([]int64, classes),
		shu: make([]uint, classes), shv: make([]uint, classes),
		classes: classes, dim: dim, wide: prec == Int16,
	}
	SU := make([]float64, classes)
	SV := make([]float64, classes)
	scoreBound := 0.0
	for c := 0; c < classes; c++ {
		mu, mv, sb := 0.0, 0.0, math.Abs(A[c])
		for j := 0; j < dim; j++ {
			if a := math.Abs(U[c][j]); a > mu {
				mu = a
			}
			if a := math.Abs(V[c][j]); a > mv {
				mv = a
			}
			sb += math.Abs(U[c][j])*float64(half) + math.Abs(V[c][j])*float64(half)*float64(half)
		}
		if mu == 0 {
			mu = 1
		}
		if mv == 0 {
			mv = 1
		}
		SU[c], SV[c] = wmax/mu, wmax/mv
		for j := 0; j < dim; j++ {
			k.u[c*dim+j] = int32(math.Round(U[c][j] * SU[c]))
			k.v[c*dim+j] = int32(math.Round(V[c][j] * SV[c]))
		}
		if sb > scoreBound {
			scoreBound = sb
		}
	}
	if scoreBound <= 0 {
		scoreBound = 1
	}
	G := float64(int64(1)<<40) / scoreBound
	k.preU = preShift(float64(dim) * wmax * float64(half))
	k.preV = preShift(float64(dim) * wmax * float64(half) * float64(half))
	for c := 0; c < classes; c++ {
		k.mu[c], k.shu[c] = requantPair(G * float64(int64(1)<<k.preU) / SU[c])
		k.mv[c], k.shv[c] = requantPair(G * float64(int64(1)<<k.preV) / SV[c])
		k.b[c] = int64(math.Round(A[c] * G))
	}
	if !k.wide && float64(dim)*wmax*float64(half)*float64(half) > float64(math.MaxInt32) {
		k.wide = true
	}
	return k, nil
}

func (k *refQBayesKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		if k.wide {
			dst[r] = k.argmax64(qi)
		} else {
			dst[r] = k.argmax32(qi)
		}
	}
}

func (k *refQBayesKernel) argmax32(q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		uc := k.u[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		vc := k.v[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var accU, accV int32
		for j, u := range uc {
			qj := q[j]
			accU += u * qj
			accV += vc[j] * (qj * qj)
		}
		s := (int64(accU)>>k.preU)*k.mu[c]>>k.shu[c] +
			(int64(accV)>>k.preV)*k.mv[c]>>k.shv[c] + k.b[c]
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

func (k *refQBayesKernel) argmax64(q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		uc := k.u[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		vc := k.v[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var accU, accV int64
		for j, u := range uc {
			qj := int64(q[j])
			accU += int64(u) * qj
			accV += int64(vc[j]) * (qj * qj)
		}
		s := (accU>>k.preU)*k.mu[c]>>k.shu[c] +
			(accV>>k.preV)*k.mv[c]>>k.shv[c] + k.b[c]
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

// --- quantized MLP ---

// refQMLPKernel: layer 1 folds the standardizer and input grid into integer
// weights with per-unit scales; each unit's accumulator requantizes onto
// the shared pre-activation grid indexing one sigmoid LUT; hidden
// activations become unsigned codes in [0, hQ]; layer 2 is a dense
// integer MAC with per-class requant, like refQDenseKernel.
type refQMLPKernel struct {
	qz      *affineQ
	w1      []int32 // hidden × dim
	m1, b1  []int64
	sh1     []uint
	pre1    uint
	lut     []int32
	lutHalf int64
	w2      []int32 // classes × hidden
	m2, b2  []int64
	sh2     []uint
	pre2    uint
	dim     int
	hidden  int
	classes int
	wide    bool
}

func refCompileQuantMLP(m *mlp.MLP, prec Precision, calib [][]float64) (*refQMLPKernel, error) {
	w1, w2 := m.Weights()
	mean, sd := m.Scaler()
	dim, hidden, classes := m.Topology()
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	hQ := float64(half) // hidden activation codes span [0, half]
	if prec == Int8 {
		hQ = 255 // hw.Int8ActBits unsigned: sigmoid outputs are non-negative
	}
	qz, err := calibrateAffine(calib, dim, half, false)
	if err != nil {
		return nil, err
	}
	k := &refQMLPKernel{
		qz: qz, w1: make([]int32, hidden*dim), w2: make([]int32, classes*hidden),
		m1: make([]int64, hidden), b1: make([]int64, hidden), sh1: make([]uint, hidden),
		m2: make([]int64, classes), b2: make([]int64, classes), sh2: make([]uint, classes),
		dim: dim, hidden: hidden, classes: classes, wide: prec == Int16,
	}
	// Layer 1: fold standardizer + grid, per-unit weight scale, requant
	// onto the LUT's pre-activation grid.
	P := float64(lutResolution)
	k.pre1 = preShift(float64(dim) * wmax * float64(half))
	for h := 0; h < hidden; h++ {
		b := w1[h][dim]
		mx := 0.0
		eff := make([]float64, dim)
		for j := 0; j < dim; j++ {
			wj := w1[h][j] / sd[j]
			b += wj * (qz.zero[j] - mean[j])
			eff[j] = wj * qz.step[j]
			if a := math.Abs(eff[j]); a > mx {
				mx = a
			}
		}
		if mx == 0 {
			mx = 1
		}
		S1 := wmax / mx
		for j := 0; j < dim; j++ {
			k.w1[h*dim+j] = int32(math.Round(eff[j] * S1))
		}
		k.m1[h], k.sh1[h] = requantPair(float64(int64(1)<<k.pre1) * P / S1)
		k.b1[h] = int64(math.Round(b * P * float64(int64(1)<<k.sh1[h])))
	}
	k.lutHalf = int64(lutRange * lutResolution)
	k.lut = make([]int32, 2*k.lutHalf+1)
	for i := -k.lutHalf; i <= k.lutHalf; i++ {
		p := float64(i) / P
		k.lut[i+k.lutHalf] = int32(math.Round(hQ / (1 + math.Exp(-p))))
	}
	// Layer 2: hidden codes carry scale hQ per 1.0 of activation.
	e2 := make([][]float64, classes)
	b2 := make([]float64, classes)
	scoreBound := 0.0
	S2 := make([]float64, classes)
	for c := 0; c < classes; c++ {
		e2[c] = make([]float64, hidden)
		b2[c] = w2[c][hidden]
		mx, sb := 0.0, math.Abs(b2[c])
		for h := 0; h < hidden; h++ {
			e2[c][h] = w2[c][h] / hQ
			if a := math.Abs(e2[c][h]); a > mx {
				mx = a
			}
			sb += math.Abs(e2[c][h]) * hQ
		}
		if mx == 0 {
			mx = 1
		}
		S2[c] = wmax / mx
		for h := 0; h < hidden; h++ {
			k.w2[c*hidden+h] = int32(math.Round(e2[c][h] * S2[c]))
		}
		if sb > scoreBound {
			scoreBound = sb
		}
	}
	if scoreBound <= 0 {
		scoreBound = 1
	}
	G := float64(int64(1)<<40) / scoreBound
	k.pre2 = preShift(float64(hidden) * wmax * hQ)
	for c := 0; c < classes; c++ {
		k.m2[c], k.sh2[c] = requantPair(G * float64(int64(1)<<k.pre2) / S2[c])
		k.b2[c] = int64(math.Round(b2[c] * G))
	}
	if !k.wide && (float64(dim)*wmax*float64(half) > float64(math.MaxInt32) ||
		float64(hidden)*wmax*hQ > float64(math.MaxInt32)) {
		k.wide = true
	}
	return k, nil
}

// sigmoidCode looks up the hidden activation code for one layer-1
// accumulator: requantize onto the LUT grid (with round-half-up), clamp
// to the saturation range, index.
func (k *refQMLPKernel) sigmoidCode(acc int64, h int) int32 {
	t := (acc>>k.pre1)*k.m1[h] + k.b1[h]
	if sh := k.sh1[h]; sh > 0 {
		t = (t + int64(1)<<(sh-1)) >> sh
	}
	if t < -k.lutHalf {
		t = -k.lutHalf
	}
	if t > k.lutHalf {
		t = k.lutHalf
	}
	return k.lut[t+k.lutHalf]
}

func (k *refQMLPKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	qh := s.qh[:k.hidden]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		if k.wide {
			for h := 0; h < k.hidden; h++ {
				wh := k.w1[h*k.dim : (h+1)*k.dim : (h+1)*k.dim]
				var acc int64
				for j, w := range wh {
					acc += int64(w) * int64(qi[j])
				}
				qh[h] = k.sigmoidCode(acc, h)
			}
		} else {
			for h := 0; h < k.hidden; h++ {
				wh := k.w1[h*k.dim : (h+1)*k.dim : (h+1)*k.dim]
				var acc int32
				for j, w := range wh {
					acc += w * qi[j]
				}
				qh[h] = k.sigmoidCode(int64(acc), h)
			}
		}
		best, bestS := 0, int64(math.MinInt64)
		for c := 0; c < k.classes; c++ {
			wc := k.w2[c*k.hidden : (c+1)*k.hidden : (c+1)*k.hidden]
			var acc int64
			for h, w := range wc {
				acc += int64(w) * int64(qh[h])
			}
			sc := (acc>>k.pre2)*k.m2[c]>>k.sh2[c] + k.b2[c]
			if sc > bestS {
				best, bestS = c, sc
			}
		}
		dst[r] = best
	}
}

// --- quantized compile entry ---

// refBuildQuantKernel lowers a trained classifier at Int8/Int16. It returns
// the kernel, the scratch arena sizes, and the spec fragments the
// Program surfaces (quantizer kind + scale table).
func refBuildQuantKernel(c ml.Classifier, prec Precision, calib [][]float64, dim int) (
	k kernel, qiLen, qhLen int, quantizer string, scale []FeatureScale, err error) {
	half := prec.half()
	switch m := c.(type) {
	case *oner.OneR:
		qk, e := refCompileQuantOneR(m, dim, half)
		return qk, 0, 0, "rank", nil, e
	case *tree.J48:
		qk, e := refCompileQuantTree(m.Export(), dim, half)
		return qk, treeGroup * dim, 0, "rank", nil, e
	case *tree.REPTree:
		qk, e := refCompileQuantTree(m.Export(), dim, half)
		return qk, treeGroup * dim, 0, "rank", nil, e
	case *rules.JRip:
		qk, e := refCompileQuantJRip(m, dim, half)
		return qk, dim, 0, "rank", nil, e
	case *linear.Logistic:
		qk, e := refCompileQuantDense(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *linear.SVM:
		qk, e := refCompileQuantDense(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *bayes.NaiveBayes:
		qk, e := refCompileQuantBayes(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *mlp.MLP:
		qk, e := refCompileQuantMLP(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, qk.hidden, "affine", qk.qz.scaleTable(), nil
	}
	return nil, 0, 0, "", nil, fmt.Errorf("%w: %T", ErrNotCompilable, c)
}

// refCompileQuant is the reference half of Compile at Int8/Int16: the
// reference kernel, a scratch for it, and the spec Compile reported.
func refCompileQuant(c ml.Classifier, prec Precision, calib [][]float64) (kernel, *scratch, ProgramSpec, error) {
	fp, err := Compile(c)
	if err != nil {
		return nil, nil, ProgramSpec{}, err
	}
	qk, qiLen, qhLen, quantizer, scale, err := refBuildQuantKernel(c, prec, calib, fp.Dim())
	if err != nil {
		return nil, nil, ProgramSpec{}, err
	}
	fk, zLen, hLen, err := buildKernel(c)
	if err != nil {
		return nil, nil, ProgramSpec{}, err
	}
	spec := fp.Spec()
	spec.Precision = prec
	spec.Proba = false
	spec.WeightBits = prec.weightBits()
	spec.AccumBits = prec.accumBits()
	spec.Quantizer = quantizer
	spec.Scale = scale
	spec.CalibrationRows = len(calib)
	spec.Agreement = measureAgreement(fk, qk,
		&scratch{z: make([]float64, zLen), h: make([]float64, hLen)},
		newArenaScratch(zLen, hLen, qiLen, qhLen), calib)
	return qk, newArenaScratch(0, 0, qiLen, qhLen), spec, nil
}

// sameMACParams reports whether a MAC kernel holds exactly the
// reference's input grid, integer weights, requant multipliers and
// shifts, biases, LUT and accumulator width. A comparison program has no
// integer parameters, so only its labels are compared.
func sameMACParams(k, ref kernel) bool {
	switch k := k.(type) {
	case *qdenseKernel:
		r, ok := ref.(*refQDenseKernel)
		return ok && reflect.DeepEqual(refQDenseKernel(*k), *r)
	case *qbayesKernel:
		r, ok := ref.(*refQBayesKernel)
		return ok && reflect.DeepEqual(refQBayesKernel(*k), *r)
	case *qmlpKernel:
		r, ok := ref.(*refQMLPKernel)
		return ok && reflect.DeepEqual(refQMLPKernel(*k), *r)
	}
	return true
}
