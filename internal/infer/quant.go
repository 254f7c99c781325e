// Quantized fixed-point programs: the int8/int16 counterparts of the
// float64 kernels in kernels.go, mirroring the internal/hw datapath
// widths (hw.Int8AccumBits / hw.Int16AccumBits) so a quantized software
// program predicts what a synthesized fixed-point detector would label.
//
// Two quantizer families cover the model zoo:
//
//   - Comparison kernels (OneR, J48, REPTree, JRip) use exact rank
//     coding: each feature is coded by its rank among the model's own
//     split thresholds, so every threshold compare is decided exactly as
//     in float64 — agreement is 1.0 by construction as long as the
//     distinct-threshold count per feature fits the code width. This is
//     precisely how the hw comparator chains behave: the comparators ARE
//     the grid.
//
//   - MAC kernels (Logistic, SVM, NaiveBayes, MLP) use a per-feature
//     affine grid calibrated from sample rows (percentile-clipped
//     symmetric signed codes), with the standardizer folded into the
//     integer weights exactly as hw.CompileLinear folds it into the
//     netlist. Per-channel weight scales plus normalized requantization
//     multipliers (m, shift pairs, TFLite-style) keep classes whose
//     weight magnitudes differ by orders of magnitude comparable in one
//     shared integer score domain.
//
// All quantized kernels accumulate into flat contiguous integer arrays
// with simple counted loops — the shapes the compiler's auto-vectorizer
// and the CPU's wide integer units like — and draw their batch scratch
// from the program's arena-backed free list, so the steady-state path
// allocates nothing.
package infer

import (
	"errors"
	"fmt"
	"math"
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

// Precision selects the numeric domain a classifier compiles into.
// The zero value is Float64, so Compile's zero-option call is unchanged.
type Precision uint8

const (
	// Float64 is the exact compiled path: bit-identical to the
	// interpreted classifier.
	Float64 Precision = iota
	// Int16 quantizes activations and weights to 16-bit symmetric codes
	// with 64-bit accumulators (hw.Int16AccumBits — the netlist score
	// spine).
	Int16
	// Int8 quantizes to 8-bit symmetric codes with 32-bit accumulators
	// (hw.Int8AccumBits).
	Int8
)

// String implements fmt.Stringer ("float64", "int16", "int8").
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Int16:
		return "int16"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// MarshalText renders the precision as its String form in JSON.
func (p Precision) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses the String form.
func (p *Precision) UnmarshalText(b []byte) error {
	v, err := ParsePrecision(string(b))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePrecision parses "float64", "int16" or "int8" (the serve
// -precision flag values).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float64", "":
		return Float64, nil
	case "int16":
		return Int16, nil
	case "int8":
		return Int8, nil
	}
	return Float64, fmt.Errorf("infer: unknown precision %q (have float64, int16, int8)", s)
}

// half returns the symmetric code limit: quantized values occupy
// [-half, +half].
func (p Precision) half() int64 {
	switch p {
	case Int8:
		return hw.QuantHalf(hw.Int8ActBits)
	case Int16:
		return hw.QuantHalf(hw.Int16ActBits)
	}
	return 0
}

func (p Precision) weightBits() int {
	switch p {
	case Int8:
		return hw.Int8WeightBits
	case Int16:
		return hw.Int16WeightBits
	}
	return 64
}

func (p Precision) accumBits() int {
	switch p {
	case Int8:
		return hw.Int8AccumBits
	case Int16:
		return hw.Int16AccumBits
	}
	return 64
}

// Option configures Compile. The zero-option call compiles the exact
// float64 program, unchanged from earlier releases.
type Option func(*compileOpts)

type compileOpts struct {
	precision Precision
	calib     [][]float64
}

// WithPrecision selects the numeric domain of the compiled program.
// Float64 (the default) is bit-exact; Int16/Int8 build fixed-point
// kernels mirroring the internal/hw datapath widths. MAC-kernel
// classifiers (Logistic, SVM, NaiveBayes, MLP) additionally need
// WithCalibration to place the input grid.
func WithPrecision(p Precision) Option {
	return func(o *compileOpts) { o.precision = p }
}

// WithCalibration supplies sample rows (typically the training set) that
// calibrate the quantized input grid: per-feature percentile-clipped
// ranges for the affine MAC kernels, and the float-vs-quantized label
// agreement measured into the program's Spec. Ignored at Float64.
func WithCalibration(rows [][]float64) Option {
	return func(o *compileOpts) { o.calib = rows }
}

// ErrNoCalibration reports a quantized compile of an affine MAC kernel
// without WithCalibration rows to place the input grid on.
var ErrNoCalibration = errors.New("infer: quantized compile requires calibration rows (WithCalibration)")

// ErrQuantCapacity reports a model whose distinct threshold count per
// feature exceeds the rank-code capacity of the requested width — e.g.
// an unbounded tree with >254 splits on one feature at Int8. The
// registry's hardware-capped models always fit.
var ErrQuantCapacity = errors.New("infer: model thresholds exceed quantized code capacity")

// FeatureScale is one feature's affine grid parameters: a real value x
// is coded as clamp(round((x - Zero) / Step)) into [-half, +half].
type FeatureScale struct {
	Feature int     `json:"feature"`
	Zero    float64 `json:"zero"`
	Step    float64 `json:"step"`
}

// ProgramSpec is the introspection surface of a compiled program: what
// got compiled, into which numeric domain, and how faithfully. It is
// served by the /api/v1/models telemetry endpoints.
type ProgramSpec struct {
	Classifier string    `json:"classifier"`
	Precision  Precision `json:"precision"`
	Features   int       `json:"features"`
	Classes    int       `json:"classes"`
	// Proba reports whether the program serves class probabilities.
	// Quantized programs are label-only.
	Proba bool `json:"proba"`
	// WeightBits/AccumBits are the datapath widths (64/64 at Float64),
	// shared with internal/hw.
	WeightBits int `json:"weight_bits"`
	AccumBits  int `json:"accum_bits"`
	// Quantizer is "affine" (MAC kernels), "rank" (comparison kernels)
	// or empty at Float64.
	Quantizer string `json:"quantizer,omitempty"`
	// Scale is the per-feature affine grid (affine quantizer only).
	Scale []FeatureScale `json:"scale,omitempty"`
	// Agreement is the label agreement between this program and the
	// exact float64 program over the calibration rows (1 when exact:
	// Float64 programs, and rank-coded programs, which cannot disagree).
	Agreement float64 `json:"agreement"`
	// CalibrationRows is how many rows calibrated the grid and scored
	// Agreement.
	CalibrationRows int `json:"calibration_rows,omitempty"`
}

// --- requantization helpers ---

// requantPair decomposes a positive scale ratio into (m, sh) with
// ratio ≈ m / 2^sh and m normalized into [2^19, 2^20) — a per-channel
// integer multiplier usable on any accumulator already bounded under
// 2^40 by preShift, keeping products inside int64. Ratios at or above
// 2^20 return sh == 0 with a larger m; callers bound their accumulators
// so the product still fits.
func requantPair(ratio float64) (int64, uint) {
	if ratio <= 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		return 0, 0
	}
	sh := uint(0)
	for ratio < float64(int64(1)<<19) {
		ratio *= 2
		sh++
	}
	for ratio >= float64(int64(1)<<20) && sh > 0 {
		ratio /= 2
		sh--
	}
	return int64(math.Round(ratio)), sh
}

// preShift returns how far an accumulator with the given worst-case
// magnitude must be shifted right before a requant multiply so the
// product stays inside int64. The dropped bits sit far below the
// quantization noise floor.
func preShift(accBound float64) uint {
	p := uint(0)
	for accBound > float64(int64(1)<<40) {
		accBound /= 2
		p++
	}
	return p
}

// --- affine quantizer (MAC kernels) ---

// affineQ codes each feature onto a symmetric signed grid:
// q = clamp(round((x - zero)/step), -half, +half). logT pre-applies the
// NaiveBayes sign-preserving log1p transform, mirroring
// bayes.NaiveBayes.transform, so the grid lives in the domain the model
// was trained in.
type affineQ struct {
	zero []float64
	step []float64
	inv  []float64 // 1/step, hoisted out of the per-row loop
	half float64
	logT bool
}

// calibPercentile clips the calibration range: the grid spans the
// [0.1%, 99.9%] percentiles per feature, so a handful of outliers
// cannot stretch the step and waste codes on empty tail range.
const calibPercentile = 0.001

func calibrateAffine(rows [][]float64, dim int, half int64, logT bool) (*affineQ, error) {
	if len(rows) == 0 {
		return nil, ErrNoCalibration
	}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("infer: calibration row %d has %d features, want %d", i, len(r), dim)
		}
	}
	q := &affineQ{
		zero: make([]float64, dim),
		step: make([]float64, dim),
		inv:  make([]float64, dim),
		half: float64(half),
		logT: logT,
	}
	col := make([]float64, len(rows))
	for j := 0; j < dim; j++ {
		for i, r := range rows {
			v := r[j]
			if logT {
				v = logTransform(v)
			}
			col[i] = v
		}
		sort.Float64s(col)
		lo := col[int(calibPercentile*float64(len(col)-1))]
		hi := col[int((1-calibPercentile)*float64(len(col)-1))]
		if hi <= lo {
			hi = lo + 1 // constant feature: any step works, codes collapse to 0
		}
		q.zero[j] = (lo + hi) / 2
		q.step[j] = (hi - lo) / float64(2*half)
		q.inv[j] = 1 / q.step[j]
	}
	return q, nil
}

// logTransform mirrors bayes.NaiveBayes.transform.
func logTransform(v float64) float64 {
	if v < 0 {
		return -math.Log1p(-v)
	}
	return math.Log1p(v)
}

func (q *affineQ) quantize(j int, v float64) int32 {
	c := math.Round((v - q.zero[j]) * q.inv[j])
	if c < -q.half {
		c = -q.half
	}
	if c > q.half {
		c = q.half
	}
	return int32(c)
}

// dequantize maps a code back onto the grid point it represents.
func (q *affineQ) dequantize(j int, code int32) float64 {
	return q.zero[j] + float64(code)*q.step[j]
}

func (q *affineQ) quantizeRow(x []float64, dst []int32) {
	if q.logT {
		for j, v := range x {
			dst[j] = q.quantize(j, logTransform(v))
		}
		return
	}
	for j, v := range x {
		dst[j] = q.quantize(j, v)
	}
}

func (q *affineQ) scaleTable() []FeatureScale {
	t := make([]FeatureScale, len(q.zero))
	for j := range t {
		t[j] = FeatureScale{Feature: j, Zero: q.zero[j], Step: q.step[j]}
	}
	return t
}

// --- rank quantizer (comparison kernels) ---

// rankQ codes feature j of a row as its rank among the model's own
// distinct split thresholds on j: code(x) = #[thresholds < x] computed
// by binary search. Because x <= t_k exactly when code(x) <= k, every
// threshold compare in the quantized walk decides identically to the
// float64 walk — rank coding is exact, not approximate.
type rankQ struct {
	thr []float64 // all features' sorted thresholds, contiguous
	off []int32   // per-feature segment offsets, len dim+1
}

// buildRankQ collects the distinct thresholds per feature and checks
// they fit the width's code capacity (codes 0..n need n <= 2*half).
func buildRankQ(dim int, half int64, perFeature map[int][]float64) (*rankQ, error) {
	q := &rankQ{off: make([]int32, dim+1)}
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

func (q *rankQ) seg(j int) []float64 { return q.thr[q.off[j]:q.off[j+1]] }

// code returns the integer code of a model threshold on feature j; the
// threshold is one of the model's own, so the search finds it exactly.
func (q *rankQ) code(j int, thr float64) int32 {
	return int32(sort.SearchFloat64s(q.seg(j), thr))
}

func (q *rankQ) quantizeRow(x []float64, dst []int32) {
	for j, v := range x {
		dst[j] = int32(sort.SearchFloat64s(q.seg(j), v))
	}
}

// --- quantized tree walk (J48, REPTree) ---

// qflatNode mirrors flatNode with the threshold as an integer code; the
// word packing (children/attr/label) is identical.
type qflatNode struct {
	thr  int32
	word uint64
}

type qtreeKernel struct {
	nodes []qflatNode
	depth int
	dim   int
	qz    *rankQ
}

func compileQuantTree(exported []tree.ExportedNode, dim int, half int64) (*qtreeKernel, error) {
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
	qz, err := buildRankQ(dim, half, perFeature)
	if err != nil {
		return nil, err
	}
	k := &qtreeKernel{nodes: make([]qflatNode, len(fl.nodes)), depth: fl.depth, dim: dim, qz: qz}
	for i, e := range exported {
		k.nodes[i].word = fl.nodes[i].word
		if !e.Leaf {
			k.nodes[i].thr = qz.code(e.Attr, e.Thr)
		}
	}
	return k, nil
}

func (k *qtreeKernel) predictOne(q []int32) int {
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

func (k *qtreeKernel) predict(dst []int, X [][]float64, s *scratch) {
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

type qonerKernel struct {
	attr     int
	nthr     int // threshold count; codes 0..nthr index the interval table
	labels   []int
	fallback int
	qz       *rankQ
}

func compileQuantOneR(o *oner.OneR, dim int, half int64) (*qonerKernel, error) {
	attr, thresholds, labels := o.Rule()
	per := map[int][]float64{}
	if attr < dim {
		per[attr] = append([]float64{}, thresholds...)
	}
	qz, err := buildRankQ(dim, half, per)
	if err != nil {
		return nil, err
	}
	return &qonerKernel{attr: attr, nthr: len(thresholds), labels: labels,
		fallback: o.Fallback(), qz: qz}, nil
}

func (k *qonerKernel) predict(dst []int, X [][]float64, _ *scratch) {
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

// qflatCond mirrors flatCond with an integer code threshold.
type qflatCond struct {
	thr  int32
	attr int32
	le   bool
}

type qruleView struct {
	conds []qflatCond
	label int32
}

type qjripKernel struct {
	conds        []qflatCond
	rules        []qruleView
	defaultLabel int
	dim          int
	qz           *rankQ
}

func compileQuantJRip(j *rules.JRip, dim int, half int64) (*qjripKernel, error) {
	learned := j.Rules()
	per := map[int][]float64{}
	for _, r := range learned {
		for _, c := range r.Conds {
			per[c.Attr] = append(per[c.Attr], c.Thr)
		}
	}
	qz, err := buildRankQ(dim, half, per)
	if err != nil {
		return nil, err
	}
	k := &qjripKernel{defaultLabel: j.DefaultLabel(), dim: dim, qz: qz}
	for _, r := range learned {
		for _, c := range r.Conds {
			k.conds = append(k.conds, qflatCond{
				thr: qz.code(c.Attr, c.Thr), attr: int32(c.Attr), le: c.Op == 'l'})
		}
	}
	off := 0
	for _, r := range learned {
		k.rules = append(k.rules, qruleView{
			conds: k.conds[off : off+len(r.Conds) : off+len(r.Conds)],
			label: int32(r.Label),
		})
		off += len(r.Conds)
	}
	return k, nil
}

func (k *qjripKernel) predict(dst []int, X [][]float64, s *scratch) {
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

// qdenseKernel is the integer MAC twin of denseKernel: standardizer and
// input grid folded into per-class int weights, a flat contiguous
// weight array walked with a counted loop, and per-class (m, sh)
// requant multipliers aligning every class onto one comparable score
// scale despite per-class weight grids.
type qdenseKernel struct {
	qz      *affineQ
	w       []int32 // classes × dim, row-major
	m, b    []int64
	sh      []uint
	pre     uint
	classes int
	dim     int
	wide    bool // int64 accumulators (Int16); else int32 (Int8)
}

func compileQuantDense(mdl linearModel, prec Precision, calib [][]float64) (*qdenseKernel, error) {
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
	k := &qdenseKernel{
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

func (k *qdenseKernel) predict(dst []int, X [][]float64, s *scratch) {
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

func (k *qdenseKernel) argmax32(q []int32) int {
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

func (k *qdenseKernel) argmax64(q []int32) int {
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

// qbayesKernel lowers the Gaussian log joint to a quadratic integer MAC:
// per class, logJoint = A + Σ_j (U_j·q_j + V_j·q_j²) after expanding the
// per-feature quadratic around the grid. U (linear) and V (quadratic)
// terms span very different magnitudes — V carries a step² factor — so
// each gets its own per-class scale and requant multiplier; a single
// shared scale would round every V to zero and silently degrade the
// model to linear.
type qbayesKernel struct {
	qz         *affineQ
	u, v       []int32 // classes × dim each, row-major
	mu, mv, b  []int64
	shu, shv   []uint
	preU, preV uint
	classes    int
	dim        int
	wide       bool
}

func compileQuantBayes(nb *bayes.NaiveBayes, prec Precision, calib [][]float64) (*qbayesKernel, error) {
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
	k := &qbayesKernel{
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

func (k *qbayesKernel) predict(dst []int, X [][]float64, s *scratch) {
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

func (k *qbayesKernel) argmax32(q []int32) int {
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

func (k *qbayesKernel) argmax64(q []int32) int {
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

// lutResolution is the sigmoid LUT's codes per unit of pre-activation;
// the table spans ±lutRange, where the sigmoid saturates beyond either
// activation width's quantum.
const (
	lutResolution = 512
	lutRange      = 8
)

// qmlpKernel: layer 1 folds the standardizer and input grid into integer
// weights with per-unit scales; each unit's accumulator requantizes onto
// the shared pre-activation grid indexing one sigmoid LUT; hidden
// activations become unsigned codes in [0, hQ]; layer 2 is a dense
// integer MAC with per-class requant, like qdenseKernel.
type qmlpKernel struct {
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

func compileQuantMLP(m *mlp.MLP, prec Precision, calib [][]float64) (*qmlpKernel, error) {
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
	k := &qmlpKernel{
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
func (k *qmlpKernel) sigmoidCode(acc int64, h int) int32 {
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

func (k *qmlpKernel) predict(dst []int, X [][]float64, s *scratch) {
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

// buildQuantKernel lowers a trained classifier at Int8/Int16. It returns
// the kernel, the scratch arena sizes, and the spec fragments the
// Program surfaces (quantizer kind + scale table).
func buildQuantKernel(c ml.Classifier, prec Precision, calib [][]float64, dim int) (
	k kernel, qiLen, qhLen int, quantizer string, scale []FeatureScale, err error) {
	half := prec.half()
	switch m := c.(type) {
	case *oner.OneR:
		qk, e := compileQuantOneR(m, dim, half)
		return qk, 0, 0, "rank", nil, e
	case *tree.J48:
		qk, e := compileQuantTree(m.Export(), dim, half)
		return qk, treeGroup * dim, 0, "rank", nil, e
	case *tree.REPTree:
		qk, e := compileQuantTree(m.Export(), dim, half)
		return qk, treeGroup * dim, 0, "rank", nil, e
	case *rules.JRip:
		qk, e := compileQuantJRip(m, dim, half)
		return qk, dim, 0, "rank", nil, e
	case *linear.Logistic:
		qk, e := compileQuantDense(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *linear.SVM:
		qk, e := compileQuantDense(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *bayes.NaiveBayes:
		qk, e := compileQuantBayes(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, 0, "affine", qk.qz.scaleTable(), nil
	case *mlp.MLP:
		qk, e := compileQuantMLP(m, prec, calib)
		if e != nil {
			return nil, 0, 0, "", nil, e
		}
		return qk, dim, qk.hidden, "affine", qk.qz.scaleTable(), nil
	}
	return nil, 0, 0, "", nil, fmt.Errorf("%w: %T", ErrNotCompilable, c)
}

// measureAgreement predicts the calibration rows through both kernels
// and returns the label agreement fraction. Compile-time only; the
// allocations here never touch the prediction hot path.
func measureAgreement(fk, qk kernel, fs, qs *scratch, rows [][]float64) float64 {
	if len(rows) == 0 {
		return 1
	}
	fDst := make([]int, len(rows))
	qDst := make([]int, len(rows))
	fk.predict(fDst, rows, fs)
	qk.predict(qDst, rows, qs)
	agree := 0
	for i := range fDst {
		if fDst[i] == qDst[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(rows))
}
