package infer

import (
	"sync"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/mltest"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
)

// benchRows is the batch predicted per Predict call: big enough to
// amortize scratch checkout, about one online-monitoring round of
// windows. One benchmark op sweeps every disjoint batch window once, so
// even a short -benchtime run is dominated by steady-state work — GC
// pressure from the interpreted path's per-row allocations included —
// instead of first-touch effects.
const benchRows = 512

// The benchmark workload mirrors the paper's multiclass study: six
// classes over the 8-counter PMU feature vector, heavily overlapped so
// the trees grow to realistic size instead of separating in two splits.
// Each op streams through disjoint batch windows, the access pattern of
// evaluation and online monitoring — repeating one batch would let the
// interpreted tree walk run entirely out of warm cache.
var bench struct {
	once   sync.Once
	x      [][]float64
	y      []int
	models map[string]ml.Classifier
}

func benchSetup(b *testing.B, name string) (ml.Classifier, [][]float64) {
	b.Helper()
	bench.once.Do(func() {
		centers := [][]float64{
			{0, 0, 0, 0, 1, 2, 0, 1},
			{2, 1, 0, 1, 0, 0, 2, 0},
			{0, 2, 2, 0, 1, 0, 1, 2},
			{1, 0, 1, 2, 2, 1, 0, 0},
			{2, 2, 1, 1, 0, 2, 2, 1},
			{1, 1, 2, 0, 2, 0, 1, 2},
		}
		bench.x, bench.y = mltest.Blobs(1, centers, 5000, 2.0)
		bench.models = map[string]ml.Classifier{}
		for n, mk := range map[string]func() ml.Classifier{
			"OneR":     func() ml.Classifier { return oner.New() },
			"JRip":     func() ml.Classifier { j := rules.New(); j.Seed = 7; return j },
			"J48":      func() ml.Classifier { return tree.NewJ48() },
			"REPTree":  func() ml.Classifier { r := tree.NewREPTree(); r.Seed = 7; return r },
			"NB":       func() ml.Classifier { return bayes.New() },
			"Logistic": func() ml.Classifier { lg := linear.NewLogistic(); lg.Seed = 7; return lg },
			"SVM":      func() ml.Classifier { s := linear.NewSVM(); s.Seed = 7; return s },
			"MLP":      func() ml.Classifier { m := mlp.New(); m.Seed = 7; return m },
		} {
			c := mk()
			if err := c.Train(bench.x, bench.y, 6); err != nil {
				panic(err)
			}
			bench.models[n] = c
		}
	})
	return bench.models[name], bench.x
}

// sweep predicts every disjoint batch window once. One pre-timer call
// warms caches, populates the scratch pool and finishes lazy
// initialization; each timed op then streams the whole dataset.
func sweep(b *testing.B, predict func(dst []int, X [][]float64) error, dst []int, x [][]float64) {
	for off := 0; off+benchRows <= len(x); off += benchRows {
		if err := predict(dst, x[off:off+benchRows]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInterpreted is the baseline: the interpreted per-row Predict
// behind the ml.Batch adapter.
func benchInterpreted(b *testing.B, name string) {
	c, x := benchSetup(b, name)
	bp := ml.Batch(c)
	dst := make([]int, benchRows)
	sweep(b, bp.PredictBatch, dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, bp.PredictBatch, dst, x)
	}
}

// reportWindowsPerCore emits the headline throughput metric: windows
// classified per second on one core. The benches run single-goroutine,
// so op time divided into rows-per-op is exactly per-core throughput;
// benchjson carries unknown units into BENCH_baseline.json as custom
// metrics, where bench-diff records them alongside ns/op.
func reportWindowsPerCore(b *testing.B, rows int) {
	if b.Elapsed() <= 0 {
		return
	}
	total := float64(rows) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "windows/s/core")
}

// benchCompiled is the same batch-window stream through the compiled
// program.
func benchCompiled(b *testing.B, name string) {
	c, x := benchSetup(b, name)
	p, err := Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int, benchRows)
	sweep(b, p.Predict, dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, p.Predict, dst, x)
	}
	reportWindowsPerCore(b, len(x)/benchRows*benchRows)
}

// benchQuant streams the same windows through the program of the given
// precision (training set as calibration). The models are the
// hardware-capped registry shapes from quant_test.go — the
// configurations serve/ingest actually deploy, and the only ones with a
// fixed-point realization (an uncapped OneR's threshold table overflows
// any 8-bit grid) — so the Int8 and Float64 families compare the same
// models.
func benchQuant(b *testing.B, name string, prec Precision) {
	quantSetup(b)
	c, x := quantBench.models[name], quantBench.x
	p, err := Compile(c, WithPrecision(prec), WithCalibration(x))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int, benchRows)
	sweep(b, p.Predict, dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(b, p.Predict, dst, x)
	}
	reportWindowsPerCore(b, len(x)/benchRows*benchRows)
}

func BenchmarkInterpretedBatchOneR(b *testing.B)     { benchInterpreted(b, "OneR") }
func BenchmarkCompiledBatchOneR(b *testing.B)        { benchCompiled(b, "OneR") }
func BenchmarkInterpretedBatchJRip(b *testing.B)     { benchInterpreted(b, "JRip") }
func BenchmarkCompiledBatchJRip(b *testing.B)        { benchCompiled(b, "JRip") }
func BenchmarkInterpretedBatchJ48(b *testing.B)      { benchInterpreted(b, "J48") }
func BenchmarkCompiledBatchJ48(b *testing.B)         { benchCompiled(b, "J48") }
func BenchmarkInterpretedBatchREPTree(b *testing.B)  { benchInterpreted(b, "REPTree") }
func BenchmarkCompiledBatchREPTree(b *testing.B)     { benchCompiled(b, "REPTree") }
func BenchmarkInterpretedBatchNB(b *testing.B)       { benchInterpreted(b, "NB") }
func BenchmarkCompiledBatchNB(b *testing.B)          { benchCompiled(b, "NB") }
func BenchmarkInterpretedBatchLogistic(b *testing.B) { benchInterpreted(b, "Logistic") }
func BenchmarkCompiledBatchLogistic(b *testing.B)    { benchCompiled(b, "Logistic") }
func BenchmarkInterpretedBatchSVM(b *testing.B)      { benchInterpreted(b, "SVM") }
func BenchmarkCompiledBatchSVM(b *testing.B)         { benchCompiled(b, "SVM") }
func BenchmarkInterpretedBatchMLP(b *testing.B)      { benchInterpreted(b, "MLP") }
func BenchmarkCompiledBatchMLP(b *testing.B)         { benchCompiled(b, "MLP") }

func BenchmarkQuantInt8BatchOneR(b *testing.B)     { benchQuant(b, "OneR", Int8) }
func BenchmarkQuantInt8BatchJRip(b *testing.B)     { benchQuant(b, "JRip", Int8) }
func BenchmarkQuantInt8BatchJ48(b *testing.B)      { benchQuant(b, "J48", Int8) }
func BenchmarkQuantInt8BatchREPTree(b *testing.B)  { benchQuant(b, "REPTree", Int8) }
func BenchmarkQuantInt8BatchNB(b *testing.B)       { benchQuant(b, "NaiveBayes", Int8) }
func BenchmarkQuantInt8BatchLogistic(b *testing.B) { benchQuant(b, "Logistic", Int8) }
func BenchmarkQuantInt8BatchSVM(b *testing.B)      { benchQuant(b, "SVM", Int8) }
func BenchmarkQuantInt8BatchMLP(b *testing.B)      { benchQuant(b, "MLP", Int8) }

func BenchmarkQuantFloat64BatchOneR(b *testing.B)     { benchQuant(b, "OneR", Float64) }
func BenchmarkQuantFloat64BatchJRip(b *testing.B)     { benchQuant(b, "JRip", Float64) }
func BenchmarkQuantFloat64BatchJ48(b *testing.B)      { benchQuant(b, "J48", Float64) }
func BenchmarkQuantFloat64BatchREPTree(b *testing.B)  { benchQuant(b, "REPTree", Float64) }
func BenchmarkQuantFloat64BatchNB(b *testing.B)       { benchQuant(b, "NaiveBayes", Float64) }
func BenchmarkQuantFloat64BatchLogistic(b *testing.B) { benchQuant(b, "Logistic", Float64) }
func BenchmarkQuantFloat64BatchSVM(b *testing.B)      { benchQuant(b, "SVM", Float64) }
func BenchmarkQuantFloat64BatchMLP(b *testing.B)      { benchQuant(b, "MLP", Float64) }

// BenchmarkCompiledPredictOne measures the single-window entry point
// online.Monitor uses per 10 ms sample.
func BenchmarkCompiledPredictOne(b *testing.B) {
	c, x := benchSetup(b, "J48")
	p, err := Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictOne(x[i%len(x)]); err != nil {
			b.Fatal(err)
		}
	}
}
