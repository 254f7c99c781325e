// Package infer compiles trained classifiers into flat, allocation-free
// prediction programs — the software twin of the internal/hw netlist
// lowering. Where hw lowers a model onto comparators and MAC arrays for
// the paper's FPGA study, infer lowers the same introspection surface
// (tree.Export, oner.Rule, rules.Rules, Weights/Scaler, bayes.Params,
// mlp.Weights) onto contiguous Go arrays walked without interface
// dispatch: trees and rule lists become index-linked node/condition
// arrays, the dense models become fused standardize-then-MAC kernels
// over internal/mat row buffers.
//
// A compiled Program predicts batches with zero steady-state
// allocations: per-batch scratch comes from an internal fixed-capacity
// free list, so a single Program is safe to share across goroutines
// (online.MonitorAll workers, parallel CV folds). Compiled output is bit-identical to the
// interpreted Predict/Proba of the source classifier — the kernels
// replay the same floating-point operations in the same order, they just
// stop paying for pointer chasing, interface calls, and per-call
// allocation. Label-only paths additionally skip the softmax/exp
// normalization, which cannot change the argmax.
package infer

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrNotCompilable reports a classifier type with no compiled kernel
// (ensembles, KNN, anomaly detectors). Callers fall back to ml.Batch.
var ErrNotCompilable = errors.New("infer: classifier has no compiled kernel")

// ErrNoProba reports a Proba call on a program whose source classifier
// is not a ml.ProbClassifier.
var ErrNoProba = errors.New("infer: program does not support probabilities")

// Compile/inference instruments, exported at /metrics as infer.*.
var (
	mCompiled       = obs.GetCounter("infer.programs_compiled")
	mCompileSeconds = obs.GetHistogram("infer.compile_seconds", obs.TimeBuckets)
	mRows           = obs.GetCounter("infer.rows_predicted")
	mBatches        = obs.GetCounter("infer.batches")
)

// kernel is a compiled label predictor over validated batches.
type kernel interface {
	predict(dst []int, X [][]float64, s *scratch)
}

// probaKernel is implemented by kernels whose source model supports
// ml.ProbClassifier. classify computes each row's class scores once,
// softmaxes them into proba[i] (caller-allocated, length NumClasses)
// and, when labels is non-nil, stores their first-max argmax, Predict's
// label, in labels[i].
type probaKernel interface {
	classify(labels []int, proba [][]float64, X [][]float64, s *scratch)
}

// scratch is the per-batch working memory drawn from the program's pool.
// Float kernels use z/h; quantized MAC kernels use the qi/qh integer views,
// which alias one arena allocation (see Compile) so a scratch costs a
// single backing array however many views a kernel needs.
type scratch struct {
	z, h   []float64
	qi, qh []int32
	oneDst [1]int
	oneX   [1][]float64
}

// Program is a compiled classifier: flat model arrays plus a scratch
// pool. It implements ml.BatchPredictor and ml.Model and is safe for
// concurrent use — the model arrays are read-only after Compile and
// every batch checks its scratch out of the pool.
type Program struct {
	name    string
	dim     int
	classes int
	k       kernel
	pk      probaKernel
	pool    chan *scratch
	newS    func() *scratch
	rows    *obs.Counter
	spec    ProgramSpec
}

// buildKernel lowers a trained classifier into its exact float64 kernel
// and reports the scratch buffer lengths it needs.
func buildKernel(c ml.Classifier) (k kernel, zLen, hLen int, err error) {
	switch m := c.(type) {
	case *oner.OneR:
		k = compileOneR(m)
	case *tree.J48:
		if k, err = compileTree(m.Export()); err != nil {
			return nil, 0, 0, err
		}
	case *tree.REPTree:
		if k, err = compileTree(m.Export()); err != nil {
			return nil, 0, 0, err
		}
	case *rules.JRip:
		k = compileJRip(m)
	case *linear.Logistic:
		k = compileDense(m, true)
		zLen = m.Dim()
	case *linear.SVM:
		k = compileDense(m, false)
		zLen = m.Dim()
	case *bayes.NaiveBayes:
		k = compileBayes(m)
		zLen = m.Dim()
	case *mlp.MLP:
		km := compileMLP(m)
		k = km
		// The MLP label kernel runs rows four at a time, so it needs
		// four standardize buffers and four hidden-activation buffers.
		zLen = 4 * m.Dim()
		hLen = 4 * km.hidden
	default:
		return nil, 0, 0, fmt.Errorf("%w: %T", ErrNotCompilable, c)
	}
	return k, zLen, hLen, nil
}

// Compile lowers a trained classifier into a Program. With no options
// (or WithPrecision(Float64)) the program is the exact float64 lowering,
// bit-identical to the interpreted classifier. WithPrecision(Int8) or
// WithPrecision(Int16) builds the fixed-point program instead —
// label-only, mirroring the internal/hw datapath widths: a comparison
// model keeps its float64 kernel once its thresholds fit the width's
// rank codes, and the MAC-kernel classifiers get integer kernels, for
// which they additionally require WithCalibration rows.
//
// Compile returns ml.ErrNotTrained for an untrained model and
// ErrNotCompilable for classifier types without a kernel (use ml.Batch
// for those); quantized compiles may also return ErrNoCalibration or
// ErrQuantCapacity.
func Compile(c ml.Classifier, opts ...Option) (p *Program, err error) {
	// Introspection accessors panic ml.ErrNotTrained on untrained
	// models; the compile API surfaces that as a returned error.
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, ml.ErrNotTrained) {
				p, err = nil, ml.ErrNotTrained
				return
			}
			panic(r)
		}
	}()
	var o compileOpts
	for _, opt := range opts {
		opt(&o)
	}
	start := time.Now()
	k, zLen, hLen, err := buildKernel(c)
	if err != nil {
		return nil, err
	}
	mm, ok := c.(ml.Model)
	if !ok {
		return nil, fmt.Errorf("infer: %T does not implement ml.Model", c)
	}
	p = &Program{
		name:    c.Name(),
		dim:     mm.Dim(),
		classes: mm.NumClasses(),
		k:       k,
		rows:    obs.GetCounter("infer." + strings.ToLower(c.Name()) + "_rows"),
	}
	p.pk, _ = k.(probaKernel)
	if dk, ok := k.(*denseKernel); ok && !dk.hasProba() {
		p.pk = nil // SVM margins are not probabilities
	}
	p.spec = ProgramSpec{
		Classifier: p.name,
		Precision:  Float64,
		Features:   p.dim,
		Classes:    p.classes,
		Proba:      p.pk != nil,
		WeightBits: Float64.weightBits(),
		AccumBits:  Float64.accumBits(),
		Agreement:  1,
	}
	qiLen, qhLen := 0, 0
	if o.precision != Float64 {
		for _, r := range o.calib {
			if len(r) != p.dim {
				return nil, fmt.Errorf("infer: %s: calibration rows have %d features, want %d",
					p.name, len(r), p.dim)
			}
		}
		qk, qi, qh, quantizer, scale, qerr := buildQuantKernel(c, k, o.precision, o.calib, p.dim)
		if qerr != nil {
			return nil, qerr
		}
		qiLen, qhLen = qi, qh
		p.spec.Precision = o.precision
		p.spec.Proba = false
		p.spec.WeightBits = o.precision.weightBits()
		p.spec.AccumBits = o.precision.accumBits()
		p.spec.Quantizer = quantizer
		p.spec.Scale = scale
		p.spec.CalibrationRows = len(o.calib)
		p.spec.Agreement = measureAgreement(k, qk,
			&scratch{z: make([]float64, zLen), h: make([]float64, hLen)},
			newArenaScratch(zLen, hLen, qiLen, qhLen), o.calib)
		p.k, p.pk = qk, nil // quantized programs are label-only
		// Float scratch is unused on the quantized path: the comparison
		// kernels a rank-coded program runs need none.
		zLen, hLen = 0, 0
	}
	p.newS = func() *scratch { return newArenaScratch(zLen, hLen, qiLen, qhLen) }
	// A small fixed-capacity free list instead of sync.Pool: Pool's
	// per-P caches can miss under goroutine migration, and a miss here
	// would cost an allocation on the hot path this package exists to
	// keep at zero.
	p.pool = make(chan *scratch, 16)
	mCompiled.Inc()
	mCompileSeconds.Observe(time.Since(start).Seconds())
	return p, nil
}

// newArenaScratch carves all of a scratch's buffers out of as few
// backing allocations as possible: one float64 arena for z/h and one
// int32 arena for qi/qh.
func newArenaScratch(zLen, hLen, qiLen, qhLen int) *scratch {
	s := &scratch{}
	if zLen+hLen > 0 {
		f := make([]float64, zLen+hLen)
		s.z, s.h = f[:zLen:zLen], f[zLen:]
	}
	if qiLen+qhLen > 0 {
		q := make([]int32, qiLen+qhLen)
		s.qi, s.qh = q[:qiLen:qiLen], q[qiLen:]
	}
	return s
}

// Compilable reports whether Compile has a kernel for this classifier
// type. It does not require the model to be trained; the registry uses
// it to advertise the compiled set from zero-value factories.
func Compilable(c ml.Classifier) bool {
	switch c.(type) {
	case *oner.OneR, *tree.J48, *tree.REPTree, *rules.JRip,
		*linear.Logistic, *linear.SVM, *bayes.NaiveBayes, *mlp.MLP:
		return true
	}
	return false
}

// Name returns the source classifier's display name.
func (p *Program) Name() string { return p.name }

// Dim implements ml.Model.
func (p *Program) Dim() int { return p.dim }

// NumClasses implements ml.Model.
func (p *Program) NumClasses() int { return p.classes }

// HasProba reports whether Proba is supported (the source classifier is
// a ml.ProbClassifier and the program is not quantized).
//
// Deprecated: use Spec().Proba, which carries the full introspection
// surface (precision, widths, scale table, agreement) alongside it.
func (p *Program) HasProba() bool { return p.pk != nil }

// Spec returns the program's introspection record: source classifier,
// numeric precision, datapath widths, quantizer kind and scale table,
// and the measured float-agreement rate. The returned value is a copy;
// mutating it does not affect the program.
func (p *Program) Spec() ProgramSpec {
	spec := p.spec
	if spec.Scale != nil {
		spec.Scale = append([]FeatureScale(nil), spec.Scale...)
	}
	return spec
}

func (p *Program) getScratch() *scratch {
	select {
	case s := <-p.pool:
		return s
	default:
		return p.newS()
	}
}

func (p *Program) putScratch(s *scratch) {
	s.oneX[0] = nil
	select {
	case p.pool <- s:
	default:
	}
}

func (p *Program) checkBatch(n int, X [][]float64) error {
	if n < len(X) {
		return fmt.Errorf("infer: %s: dst holds %d results but X has %d rows", p.name, n, len(X))
	}
	for i, row := range X {
		if len(row) != p.dim {
			return fmt.Errorf("infer: %s: row %d has %d features, want %d", p.name, i, len(row), p.dim)
		}
	}
	return nil
}

// checkProba validates a probability destination: the program has
// probabilities, and proba holds one NumClasses-long row per row of X.
func (p *Program) checkProba(proba [][]float64, X [][]float64) error {
	if p.pk == nil {
		return fmt.Errorf("%w: %s", ErrNoProba, p.name)
	}
	if err := p.checkBatch(len(proba), X); err != nil {
		return err
	}
	for i := range X {
		if len(proba[i]) != p.classes {
			return fmt.Errorf("infer: %s: dst row %d has %d slots, want %d", p.name, i, len(proba[i]), p.classes)
		}
	}
	return nil
}

// countBatch records one batch of n rows in the infer.* counters.
func (p *Program) countBatch(n int) {
	p.rows.Add(int64(n))
	mRows.Add(int64(n))
	mBatches.Inc()
}

// Predict fills dst[i] with the predicted label for X[i]. It allocates
// nothing in steady state and matches the interpreted Predict of the
// source classifier bit for bit.
func (p *Program) Predict(dst []int, X [][]float64) error {
	if err := p.checkBatch(len(dst), X); err != nil {
		return err
	}
	s := p.getScratch()
	p.k.predict(dst[:len(X)], X, s)
	p.putScratch(s)
	p.countBatch(len(X))
	return nil
}

// PredictBatch implements ml.BatchPredictor.
func (p *Program) PredictBatch(dst []int, X [][]float64) error { return p.Predict(dst, X) }

// PredictOne predicts a single instance through the compiled kernel
// without allocating.
func (p *Program) PredictOne(x []float64) (int, error) {
	if len(x) != p.dim {
		return 0, fmt.Errorf("infer: %s: %d features, want %d", p.name, len(x), p.dim)
	}
	s := p.getScratch()
	s.oneX[0] = x
	p.k.predict(s.oneDst[:], s.oneX[:], s)
	label := s.oneDst[0]
	p.putScratch(s)
	p.rows.Add(1)
	mRows.Add(1)
	return label, nil
}

// Proba fills dst[i] (caller-allocated, length NumClasses) with the
// class-probability distribution for X[i], bit-identical to the source
// classifier's Proba. Returns ErrNoProba when unsupported.
func (p *Program) Proba(dst [][]float64, X [][]float64) error {
	if err := p.checkProba(dst, X); err != nil {
		return err
	}
	s := p.getScratch()
	p.pk.classify(nil, dst[:len(X)], X, s)
	p.putScratch(s)
	p.countBatch(len(X))
	return nil
}

// Classify is Predict and Proba from one forward pass: it fills dst[i]
// with X[i]'s label and proba[i] (caller-allocated, length NumClasses)
// with its class-probability distribution. The labels equal Predict's
// and the distributions equal Proba's, bit for bit, and the rows count
// once in the infer.* counters. Returns ErrNoProba when unsupported.
func (p *Program) Classify(dst []int, proba [][]float64, X [][]float64) error {
	if err := p.checkProba(proba, X); err != nil {
		return err
	}
	if len(dst) < len(X) {
		return fmt.Errorf("infer: %s: dst holds %d results but X has %d rows", p.name, len(dst), len(X))
	}
	s := p.getScratch()
	p.pk.classify(dst[:len(X)], proba[:len(X)], X, s)
	p.putScratch(s)
	p.countBatch(len(X))
	return nil
}

// shardMin is the smallest batch worth splitting across workers; below
// it the fan-out overhead beats the kernel time.
const shardMin = 2048

// PredictParallel is Predict with the batch sharded across the parallel
// engine. workers follows parallel.Options semantics (0 = process-wide
// default, 1 = inline). Small batches and single-worker runs take the
// serial zero-alloc path; predictions are per-row independent, so the
// result is identical at any worker count.
func (p *Program) PredictParallel(dst []int, X [][]float64, workers int) error {
	if workers == 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers <= 1 || len(X) < shardMin {
		return p.Predict(dst, X)
	}
	shards := workers
	if max := len(X) / (shardMin / 2); shards > max {
		shards = max
	}
	per := (len(X) + shards - 1) / shards
	return parallel.ForEach(
		parallel.Options{Name: "infer.predict", Workers: workers},
		shards, func(i int) error {
			lo := i * per
			hi := lo + per
			if hi > len(X) {
				hi = len(X)
			}
			return p.Predict(dst[lo:hi], X[lo:hi])
		})
}
