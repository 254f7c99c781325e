// Quantized fixed-point programs: the int8/int16 counterparts of the
// float64 kernels in kernels.go, mirroring the internal/hw datapath
// widths (hw.Int8AccumBits / hw.Int16AccumBits) so a quantized software
// program predicts what a synthesized fixed-point detector would label.
//
// Two quantizer families cover the model zoo:
//
//   - Comparison programs (OneR, J48, REPTree, JRip) are rank-coded:
//     each feature is coded by its rank among the model's own distinct
//     split thresholds on it, and x <= t_k exactly when code(x) <= k, so
//     every threshold compare decides exactly as in float64. The program
//     is therefore the float64 comparison kernel itself, compiled once
//     the distinct-threshold count per feature fits the code width. This
//     is precisely how the hw comparator chains behave: the comparators
//     ARE the grid.
//
//   - MAC kernels (Logistic, SVM, NaiveBayes, MLP) use a per-feature
//     affine grid calibrated from sample rows (percentile-clipped
//     symmetric signed codes), with the standardizer folded into the
//     integer weights exactly as hw.CompileLinear folds it into the
//     netlist (affineQ.fold). Per-channel weight scales (scaleWeights)
//     plus normalized requantization multipliers (m, shift pairs,
//     TFLite-style) keep classes whose weight magnitudes differ by
//     orders of magnitude comparable in one shared integer score domain.
//
// The MAC kernels accumulate into flat contiguous integer arrays with
// simple counted loops, generic over the accumulator width (accum) —
// the shapes the compiler's auto-vectorizer and the CPU's wide integer
// units like — and draw their batch scratch from the program's
// arena-backed free list, so the steady-state path allocates nothing.
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

// fold folds the standardizer (mean, std) and the input grid into the
// effective weights of one output channel, exactly as hw.CompileLinear
// folds standardization into the netlist: with z = zero + q·step,
// w·(x-mean)/std + w[dim] becomes eff·q + bias. w holds the channel's
// dim weights then its bias; eff receives the dim effective weights.
func (q *affineQ) fold(w, mean, std, eff []float64) (bias float64) {
	bias = w[len(eff)]
	for j := range eff {
		wj := w[j] / std[j]
		bias += wj * (q.zero[j] - mean[j])
		eff[j] = wj * q.step[j]
	}
	return bias
}

// scaleWeights rounds one channel's real weights onto the integer grid
// whose largest magnitude is ±wmax, writing them to dst, and returns the
// scale S with dst[j] = round(eff[j]·S). An all-zero channel scales by
// wmax.
func scaleWeights(eff []float64, wmax float64, dst []int32) float64 {
	mx := 0.0
	for _, e := range eff {
		if a := math.Abs(e); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		mx = 1
	}
	S := wmax / mx
	for j, e := range eff {
		dst[j] = int32(math.Round(e * S))
	}
	return S
}

// accum is a MAC kernel's accumulator width: int32 on the Int8 datapath
// (hw.Int8AccumBits), where a sum wraps as the 32-bit register would,
// and int64 on the Int16 one (hw.Int16AccumBits) or wherever an Int8
// sum could overflow 32 bits.
type accum interface{ int32 | int64 }

// --- rank capacity (comparison programs) ---

// splitThresholds collects a comparison model's split thresholds per
// feature; ok is false for every other model.
func splitThresholds(c ml.Classifier) (per map[int][]float64, ok bool) {
	per = map[int][]float64{}
	switch m := c.(type) {
	case *oner.OneR:
		attr, thresholds, _ := m.Rule()
		per[attr] = thresholds
	case interface{ Export() []tree.ExportedNode }: // J48, REPTree
		for _, e := range m.Export() {
			if !e.Leaf {
				per[e.Attr] = append(per[e.Attr], e.Thr)
			}
		}
	case *rules.JRip:
		for _, r := range m.Rules() {
			for _, cond := range r.Conds {
				per[cond.Attr] = append(per[cond.Attr], cond.Thr)
			}
		}
	default:
		return nil, false
	}
	return per, true
}

// rankCapacity checks that every feature's distinct thresholds fit the
// width's rank codes (codes 0..n need n <= 2*half). The thresholds are
// counted as their rank codes number them: sorted, equal neighbours
// once, each NaN apart. The error names the first feature over capacity
// in index order.
func rankCapacity(dim int, half int64, perFeature map[int][]float64) error {
	for j := 0; j < dim; j++ {
		ts := perFeature[j]
		sort.Float64s(ts)
		n, last := 0, 0.0
		for i, t := range ts {
			if i == 0 || t != last {
				n, last = n+1, t
			}
		}
		if int64(n) > 2*half {
			return fmt.Errorf("%w: %d distinct thresholds on feature %d, capacity %d",
				ErrQuantCapacity, n, j, 2*half)
		}
	}
	return nil
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

func compileQuantDense(mdl linearModel, prec Precision, qz *affineQ) *qdenseKernel {
	w := mdl.Weights()
	mean, std := mdl.Scaler()
	dim, classes := len(mean), len(w)
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	k := &qdenseKernel{
		qz: qz, w: make([]int32, classes*dim),
		m: make([]int64, classes), b: make([]int64, classes), sh: make([]uint, classes),
		classes: classes, dim: dim, wide: prec == Int16,
	}
	eff := make([]float64, dim)
	biasR := make([]float64, classes)
	S := make([]float64, classes)
	scoreBound := 0.0
	for c := 0; c < classes; c++ {
		biasR[c] = qz.fold(w[c], mean, std, eff)
		S[c] = scaleWeights(eff, wmax, k.w[c*dim:(c+1)*dim])
		sb := math.Abs(biasR[c])
		for _, e := range eff {
			sb += math.Abs(e) * float64(half)
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
	return k
}

func (k *qdenseKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		if k.wide {
			dst[r] = qdenseArgmax[int64](k, qi)
		} else {
			dst[r] = qdenseArgmax[int32](k, qi)
		}
	}
}

// qdenseArgmax returns the first best class of one quantized row, each
// class's dot product summed in an A accumulator. It is a function of
// its own, called per row, because the class loop folded into predict's
// row loop measured about 15% slower (BenchmarkQuantInt8BatchLogistic
// and SVM, 2-vCPU Xeon).
func qdenseArgmax[A accum](k *qdenseKernel, q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		wc := k.w[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var acc A
		for j, w := range wc {
			acc += A(w) * A(q[j])
		}
		s := (int64(acc)>>k.pre)*k.m[c]>>k.sh[c] + k.b[c]
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

func compileQuantBayes(nb *bayes.NaiveBayes, prec Precision, qz *affineQ) *qbayesKernel {
	priors, means, vars := nb.Params()
	classes, dim := len(means), len(means[0])
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	k := &qbayesKernel{
		qz: qz, u: make([]int32, classes*dim), v: make([]int32, classes*dim),
		mu: make([]int64, classes), mv: make([]int64, classes), b: make([]int64, classes),
		shu: make([]uint, classes), shv: make([]uint, classes),
		classes: classes, dim: dim, wide: prec == Int16,
	}
	U := make([]float64, dim)
	V := make([]float64, dim)
	A := make([]float64, classes)
	SU := make([]float64, classes)
	SV := make([]float64, classes)
	scoreBound := 0.0
	for c := 0; c < classes; c++ {
		A[c] = priors[c]
		for j := 0; j < dim; j++ {
			va := vars[c][j]
			gamma := -1.0 / (2 * va)
			beta := means[c][j] / va
			alpha := -0.5*math.Log(2*math.Pi*va) - means[c][j]*means[c][j]/(2*va)
			z0 := qz.zero[j]
			A[c] += alpha + beta*z0 + gamma*z0*z0
			U[j] = (beta + 2*gamma*z0) * qz.step[j]
			V[j] = gamma * qz.step[j] * qz.step[j]
		}
		sb := math.Abs(A[c])
		for j := 0; j < dim; j++ {
			sb += math.Abs(U[j])*float64(half) + math.Abs(V[j])*float64(half)*float64(half)
		}
		if sb > scoreBound {
			scoreBound = sb
		}
		SU[c] = scaleWeights(U, wmax, k.u[c*dim:(c+1)*dim])
		SV[c] = scaleWeights(V, wmax, k.v[c*dim:(c+1)*dim])
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
	return k
}

func (k *qbayesKernel) predict(dst []int, X [][]float64, s *scratch) {
	qi := s.qi[:k.dim]
	for r, x := range X {
		k.qz.quantizeRow(x, qi)
		if k.wide {
			dst[r] = qbayesArgmax[int64](k, qi)
		} else {
			dst[r] = qbayesArgmax[int32](k, qi)
		}
	}
}

// qbayesArgmax returns the first best class log joint of one quantized
// row, both of each class's sums in A accumulators.
func qbayesArgmax[A accum](k *qbayesKernel, q []int32) int {
	best, bestS := 0, int64(math.MinInt64)
	for c := 0; c < k.classes; c++ {
		uc := k.u[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		vc := k.v[c*k.dim : (c+1)*k.dim : (c+1)*k.dim]
		var accU, accV A
		for j, u := range uc {
			qj := A(q[j])
			accU += A(u) * qj
			accV += A(vc[j]) * (qj * qj)
		}
		s := (int64(accU)>>k.preU)*k.mu[c]>>k.shu[c] +
			(int64(accV)>>k.preV)*k.mv[c]>>k.shv[c] + k.b[c]
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

func compileQuantMLP(m *mlp.MLP, prec Precision, qz *affineQ) *qmlpKernel {
	w1, w2 := m.Weights()
	mean, sd := m.Scaler()
	dim, hidden, classes := m.Topology()
	half := prec.half()
	wmax := float64(hw.QuantHalf(prec.weightBits()))
	hQ := float64(half) // hidden activation codes span [0, half]
	if prec == Int8 {
		hQ = 255 // hw.Int8ActBits unsigned: sigmoid outputs are non-negative
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
	eff := make([]float64, dim)
	for h := 0; h < hidden; h++ {
		b := qz.fold(w1[h], mean, sd, eff)
		S1 := scaleWeights(eff, wmax, k.w1[h*dim:(h+1)*dim])
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
	e2 := make([]float64, hidden)
	b2 := make([]float64, classes)
	S2 := make([]float64, classes)
	scoreBound := 0.0
	for c := 0; c < classes; c++ {
		b2[c] = w2[c][hidden]
		sb := math.Abs(b2[c])
		for h := 0; h < hidden; h++ {
			e2[h] = w2[c][h] / hQ
			sb += math.Abs(e2[h]) * hQ
		}
		S2[c] = scaleWeights(e2, wmax, k.w2[c*hidden:(c+1)*hidden])
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
	return k
}

// qmlpHidden computes one quantized row's hidden activation codes into
// qh, each unit's layer-1 sum in an A accumulator.
func qmlpHidden[A accum](k *qmlpKernel, qi, qh []int32) {
	for h := range qh {
		wh := k.w1[h*k.dim : (h+1)*k.dim : (h+1)*k.dim]
		var acc A
		for j, w := range wh {
			acc += A(w) * A(qi[j])
		}
		qh[h] = k.sigmoidCode(int64(acc), h)
	}
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
			qmlpHidden[int64](k, qi, qh)
		} else {
			qmlpHidden[int32](k, qi, qh)
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

// buildQuantKernel lowers a trained classifier at Int8/Int16. A
// comparison model keeps its float64 kernel fk once its thresholds fit
// the width's rank codes; a MAC model gets its integer kernel on a grid
// calibrated from calib. It returns the kernel, the scratch arena sizes,
// and the spec fragments the Program surfaces (quantizer kind + scale
// table).
func buildQuantKernel(c ml.Classifier, fk kernel, prec Precision, calib [][]float64, dim int) (
	k kernel, qiLen, qhLen int, quantizer string, scale []FeatureScale, err error) {
	if per, ok := splitThresholds(c); ok {
		return fk, 0, 0, "rank", nil, rankCapacity(dim, prec.half(), per)
	}
	logT := false
	if nb, ok := c.(*bayes.NaiveBayes); ok {
		logT = nb.LogTransform
	}
	qz, err := calibrateAffine(calib, dim, prec.half(), logT)
	if err != nil {
		return nil, 0, 0, "", nil, err
	}
	switch m := c.(type) {
	case *linear.Logistic:
		k = compileQuantDense(m, prec, qz)
	case *linear.SVM:
		k = compileQuantDense(m, prec, qz)
	case *bayes.NaiveBayes:
		k = compileQuantBayes(m, prec, qz)
	case *mlp.MLP:
		k = compileQuantMLP(m, prec, qz)
		_, qhLen, _ = m.Topology()
	default:
		return nil, 0, 0, "", nil, fmt.Errorf("%w: %T", ErrNotCompilable, c)
	}
	return k, dim, qhLen, "affine", qz.scaleTable(), nil
}

// measureAgreement predicts the calibration rows through both kernels
// and returns the label agreement fraction. A rank-coded program runs
// its float64 kernel, so it agrees exactly without a pass. Compile-time
// only; the allocations here never touch the prediction hot path.
func measureAgreement(fk, qk kernel, fs, qs *scratch, rows [][]float64) float64 {
	if len(rows) == 0 || qk == fk {
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
