package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hw"
	"repro/internal/ml/eval"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scopes a reproduction run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale shrinks the paper's 3,070-sample database (1.0 = full).
	Scale float64
	// Trace overrides measurement parameters (zero value = paper
	// defaults).
	Trace trace.Config
	// Progress, when non-nil, receives coarse completion callbacks while
	// an experiment runs: stage names a unit of work (usually a
	// classifier), done/total count completed units. Long multi-model
	// experiments call it once per model; cheap table experiments may not
	// call it at all. Parallel experiments may call it from worker
	// goroutines; the callback must be safe for concurrent use.
	Progress func(stage string, done, total int)
	// Parallelism bounds the worker count for the fan-out stages
	// (per-classifier sweeps, per-family PCA). 0 uses the process-wide
	// default (the CLI's -parallel flag); 1 forces the serial path.
	Parallelism int
}

// Option configures a Runner at construction.
type Option func(*Config)

// WithSeed sets the seed that drives all randomness.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithScale sets the database scale (1.0 = the paper's full 3,070
// samples).
func WithScale(scale float64) Option {
	return func(c *Config) { c.Scale = scale }
}

// WithProgress installs a completion callback (see Config.Progress). It
// may be invoked from worker goroutines and must be safe for concurrent
// use.
func WithProgress(fn func(stage string, done, total int)) Option {
	return func(c *Config) { c.Progress = fn }
}

// WithParallelism bounds the fan-out worker count (see
// Config.Parallelism).
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithConfig bulk-applies a Config, replacing everything set so far.
// Later options still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// Runner caches the generated dataset across experiments so `repro all`
// measures one database, exactly as the paper did.
type Runner struct {
	cfg Config
	tbl *dataset.Table
}

// NewRunner returns a Runner. With no options it reproduces the paper
// defaults: seed 0, scale 0.1, paper trace parameters, no progress
// callback, process-default parallelism.
func NewRunner(opts ...Option) *Runner {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 0.1
	}
	return &Runner{cfg: cfg}
}

// workers resolves the runner's fan-out worker count.
func (r *Runner) workers() int {
	if r.cfg.Parallelism > 0 {
		return r.cfg.Parallelism
	}
	return parallel.DefaultWorkers()
}

// Dataset generates (once) and returns the labelled table.
func (r *Runner) Dataset() (*dataset.Table, error) {
	if r.tbl != nil {
		return r.tbl, nil
	}
	tbl, err := core.GenerateDataset(core.DatasetConfig{
		Seed:  r.cfg.Seed,
		Scale: r.cfg.Scale,
		Trace: r.cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	r.tbl = tbl
	r.progress("dataset", 1, 1)
	return tbl, nil
}

// progress reports one completed unit of work to the configured callback
// (if any), to the debug log, and to the live event bus so an attached
// /events stream can follow a long repro run stage by stage.
func (r *Runner) progress(stage string, done, total int) {
	if r.cfg.Progress != nil {
		r.cfg.Progress(stage, done, total)
	}
	obs.PublishEvent(obs.Event{Type: "stage", Msg: stage,
		Window: done, Value: float64(done) / float64(total)})
	obs.Log().Debug("experiment progress", "stage", stage, "done", done, "total", total)
}

// Table1 reproduces the database composition table.
func (r *Runner) Table1() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	samples := tbl.SampleCounts()
	rows := tbl.ClassCounts()
	paper := workload.PaperSampleCounts()
	rep := &Report{
		ID:         "table1",
		Title:      "Number of samples of different application classes",
		PaperClaim: "3,070 samples: backdoor 452, rootkit 324, trojan 1169, virus 650, worm 149, benign 326; ~50,000 HPC rows",
		Header:     []string{"class", "paper samples", "our samples", "our rows"},
	}
	totalS, totalR := 0, 0
	for _, c := range workload.AllClasses() {
		rep.Rows = append(rep.Rows, []string{
			c.String(),
			fmt.Sprintf("%d", paper[c]),
			fmt.Sprintf("%d", samples[c]),
			fmt.Sprintf("%d", rows[c]),
		})
		totalS += samples[c]
		totalR += rows[c]
	}
	rep.Rows = append(rep.Rows, []string{"total",
		fmt.Sprintf("%d", workload.PaperTotalSamples),
		fmt.Sprintf("%d", totalS), fmt.Sprintf("%d", totalR)})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("scale %.2f of the paper's database", r.cfg.Scale))
	return rep, nil
}

// Fig6 reproduces the class-distribution pie as percentages.
func (r *Runner) Fig6() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	samples := tbl.SampleCounts()
	total := 0
	for _, n := range samples {
		total += n
	}
	paper := workload.PaperSampleCounts()
	rep := &Report{
		ID:         "fig6",
		Title:      "Distribution of malware (used) into classes",
		PaperClaim: "distribution mirrors the in-the-wild mix: trojan dominates (~70% of malware on the internet; 43% of the paper's malware samples)",
		Header:     []string{"class", "paper share", "our share"},
	}
	for _, c := range workload.AllClasses() {
		rep.Rows = append(rep.Rows, []string{
			c.String(),
			pct(float64(paper[c]) / float64(workload.PaperTotalSamples)),
			pct(float64(samples[c]) / float64(total)),
		})
	}
	return rep, nil
}

// Table2 reproduces the PCA-reduced custom feature sets per class.
func (r *Runner) Table2() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	custom, common, err := core.CustomFeatureSets(tbl, 8, 0.95)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "table2",
		Title:      "Reduced features from PCA (top-8 custom per malware class)",
		PaperClaim: "8 custom features per class; 4 features common to all classes (branch-instructions, cache-references, branch-misses, node-stores)",
		Header:     []string{"rank", "backdoor", "rootkit", "trojan", "virus", "worm"},
	}
	order := []string{"backdoor", "rootkit", "trojan", "virus", "worm"}
	for i := 0; i < 8; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, cls := range order {
			row = append(row, custom[cls][i])
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d common features across all classes: %v", len(common), common))
	return rep, nil
}

// PCAPlots reproduces Figures 9-12: per-family top-2-PC projections,
// summarized by centroid separation (a scatter plot in numbers).
func (r *Runner) PCAPlots() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "pcaplots",
		Title:      "PCA plots for rootkit/trojan/virus/worm (Figures 9-12)",
		PaperClaim: "malware and benign rows form visually separable clusters in the top-2 PC plane",
		Header:     []string{"class", "points", "centroid dist", "mean spread", "separation ratio"},
	}
	// One task per malware family: each fits its own PCA over that
	// family's rows plus benign, so the four projections are independent.
	families := workload.MalwareClasses()
	rows, err := parallel.Map(
		parallel.Options{Name: "experiments.families", Workers: r.workers()},
		len(families), func(fi int) ([]string, error) {
			c := families[fi]
			pts, labels, err := core.PCAPlotPoints(tbl, c)
			if err != nil {
				return nil, err
			}
			var cm, cb [2]float64
			var nm, nb int
			for i, p := range pts {
				if labels[i] == 1 {
					cm[0] += p[0]
					cm[1] += p[1]
					nm++
				} else {
					cb[0] += p[0]
					cb[1] += p[1]
					nb++
				}
			}
			cm[0] /= float64(nm)
			cm[1] /= float64(nm)
			cb[0] /= float64(nb)
			cb[1] /= float64(nb)
			dist := math.Hypot(cm[0]-cb[0], cm[1]-cb[1])
			spread := 0.0
			for i, p := range pts {
				var ref [2]float64
				if labels[i] == 1 {
					ref = cm
				} else {
					ref = cb
				}
				spread += math.Hypot(p[0]-ref[0], p[1]-ref[1])
			}
			spread /= float64(len(pts))
			ratio := math.Inf(1)
			if spread > 0 {
				ratio = dist / spread
			}
			return []string{
				c.String(), fmt.Sprintf("%d", len(pts)),
				fmt.Sprintf("%.2f", dist), fmt.Sprintf("%.2f", spread),
				fmt.Sprintf("%.2f", ratio),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// Fig13 reproduces the binary accuracy comparison at 8 and 4 PCA-reduced
// features for all classifiers.
func (r *Runner) Fig13() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	top8, err := core.GlobalTopFeaturesBinary(tbl, 8, 0.95)
	if err != nil {
		return nil, err
	}
	top4 := top8[:4]
	rep := &Report{
		ID:         "fig13",
		Title:      "Binary accuracy, 8 vs 4 PCA-reduced features",
		PaperClaim: "most classifiers lose a little accuracy at 4 features; J48 and OneR barely change",
		Header:     []string{"classifier", "acc@16", "acc@8", "acc@4", "delta 8->4"},
	}
	// One task per classifier; each trains its three models (16/8/4
	// features) independently from the shared seed, so row order and
	// content match the serial sweep at any worker count.
	names := core.ClassifierNames()
	var done atomic.Int64
	rows, err := parallel.Map(
		parallel.Options{Name: "experiments.classifiers", Workers: r.workers()},
		len(names), func(i int) ([]string, error) {
			name := names[i]
			res16, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: name, Binary: true,
				Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			res8, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: name, Binary: true, Features: top8,
				Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			res4, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: name, Binary: true, Features: top4,
				Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			a16, a8, a4 := res16.Eval.Accuracy(), res8.Eval.Accuracy(), res4.Eval.Accuracy()
			r.progress(name, int(done.Add(1)), len(names))
			return []string{
				name, pct(a16), pct(a8), pct(a4), fmt.Sprintf("%+.1f%%", (a4-a8)*100),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// HardwareFigures reproduces Figures 14 (area), 15 (latency) and 16
// (accuracy per area) over the binary classifiers at 8 reduced features.
func (r *Runner) HardwareFigures(id string) (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	top8, err := core.GlobalTopFeaturesBinary(tbl, 8, 0.95)
	if err != nil {
		return nil, err
	}
	type row struct {
		name string
		res  *core.DetectorResult
	}
	names := core.ClassifierNames()
	var done atomic.Int64
	rows, err := parallel.Map(
		parallel.Options{Name: "experiments.classifiers", Workers: r.workers()},
		len(names), func(i int) (row, error) {
			res, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: names[i], Binary: true, Features: top8, Seed: r.cfg.Seed,
			})
			if err != nil {
				return row{}, err
			}
			r.progress(names[i], int(done.Add(1)), len(names))
			return row{names[i], res}, nil
		})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id}
	switch id {
	case "fig14":
		rep.Title = "Hardware area comparison (LUT-equivalents, 8 features)"
		rep.PaperClaim = "MLP is by far the largest; OneR and JRip the smallest"
		rep.Header = []string{"classifier", "LUT", "FF", "DSP", "BRAM", "equiv LUTs", "power mW", "nJ/inf"}
		for _, rw := range rows {
			a := rw.res.HW.Area
			pw := hw.EstimatePower(rw.res.HW, 1)
			rep.Rows = append(rep.Rows, []string{rw.name,
				fmt.Sprintf("%d", a.LUT), fmt.Sprintf("%d", a.FF),
				fmt.Sprintf("%d", a.DSP), fmt.Sprintf("%d", a.BRAM),
				fmt.Sprintf("%d", rw.res.HW.EquivLUTs),
				fmt.Sprintf("%.2f", pw.TotalMW()),
				fmt.Sprintf("%.3f", pw.EnergyPerInferenceNJ)})
		}
	case "fig15":
		rep.Title = "Hardware latency comparison (cycles at 100 MHz, 8 features)"
		rep.PaperClaim = "trees and rules classify in a handful of cycles; MLP latency dominates"
		rep.Header = []string{"classifier", "cycles", "latency ns"}
		for _, rw := range rows {
			rep.Rows = append(rep.Rows, []string{rw.name,
				fmt.Sprintf("%d", rw.res.HW.Cycles),
				fmt.Sprintf("%.0f", rw.res.HW.LatencyNs)})
		}
	case "fig16":
		rep.Title = "Accuracy/Area comparison (accuracy % per kLUT, 8 features)"
		rep.PaperClaim = "JRip and OneR have far better accuracy/area than neural networks"
		rep.Header = []string{"classifier", "accuracy", "equiv LUTs", "acc%/kLUT"}
		type fom struct {
			name string
			v    float64
			row  []string
		}
		var foms []fom
		for _, rw := range rows {
			v := hw.AccuracyPerArea(rw.res.Eval.Accuracy(), rw.res.HW)
			foms = append(foms, fom{rw.name, v, []string{rw.name,
				pct(rw.res.Eval.Accuracy()),
				fmt.Sprintf("%d", rw.res.HW.EquivLUTs),
				fmt.Sprintf("%.1f", v)}})
		}
		sort.SliceStable(foms, func(i, j int) bool { return foms[i].v > foms[j].v })
		for _, f := range foms {
			rep.Rows = append(rep.Rows, f.row)
		}
		rep.Notes = append(rep.Notes, "rows sorted by accuracy/area, best first")
	}
	return rep, nil
}

// Fig17 reproduces the multiclass average accuracy comparison
// (MLR / MLP / SVM on the 6-class problem, all 16 features).
func (r *Runner) Fig17() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "fig17",
		Title:      "Average accuracy for multiclass classification",
		PaperClaim: "neural networks (MLP) have the best multiclass accuracy",
		Header:     []string{"classifier", "accuracy"},
	}
	names := core.MulticlassNames()
	var done atomic.Int64
	rows, err := parallel.Map(
		parallel.Options{Name: "experiments.classifiers", Workers: r.workers()},
		len(names), func(i int) ([]string, error) {
			res, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: names[i], Binary: false, Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			r.progress(names[i], int(done.Add(1)), len(names))
			return []string{core.MulticlassLabel(names[i]), pct(res.Eval.Accuracy())}, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// Fig18 reproduces the per-class accuracy (recall) of the multiclass
// classifiers.
func (r *Runner) Fig18() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "fig18",
		Title:      "Per-class accuracy for the multiclass classifiers",
		PaperClaim: "per-class accuracy varies strongly by family; the benign-like trojan and the smallest family (worm, 149 samples) suffer most",
		Header:     append([]string{"classifier"}, classNames()...),
	}
	names := core.MulticlassNames()
	var done atomic.Int64
	rows, err := parallel.Map(
		parallel.Options{Name: "experiments.classifiers", Workers: r.workers()},
		len(names), func(i int) ([]string, error) {
			res, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: names[i], Binary: false, Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			row := []string{core.MulticlassLabel(names[i])}
			for c := 0; c < workload.NumClasses; c++ {
				row = append(row, pct(res.Eval.Confusion.Recall(c)))
			}
			r.progress(names[i], int(done.Add(1)), len(names))
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// Fig19 reproduces the PCA-assisted MLR vs plain MLR comparison: the
// paper reports ~7% average accuracy improvement from per-class custom
// feature sets.
func (r *Runner) Fig19() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Context baseline: joint multinomial MLR on all 16 features.
	plain16, err := core.NewClassifier("Logistic", r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	plain16Res, err := eval.TrainAndTest(plain16,
		rowsOf(train), train.ClassLabels(), rowsOf(test), test.ClassLabels(),
		workload.NumClasses)
	if err != nil {
		return nil, err
	}

	// The custom-vs-non-custom comparison holds the architecture fixed
	// (one-vs-rest MLR ensemble) and varies only the feature sets: one
	// shared PCA top-8 set ("normal") vs per-class custom 8 sets
	// ("PCA-assisted"), the thesis's Figure 19 quantities.
	global8, err := core.GlobalTopFeatures(train, 8, 0.95)
	if err != nil {
		return nil, err
	}
	uniform, err := core.TrainUniformAssisted(train, global8, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	uniformRes, err := eval.Evaluate(uniform,
		rowsOf(test), test.ClassLabels(), workload.NumClasses)
	if err != nil {
		return nil, err
	}

	assisted, err := core.TrainPCAAssisted(train, 8, 0.95, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	assistedRes, err := eval.Evaluate(assisted,
		rowsOf(test), test.ClassLabels(), workload.NumClasses)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:         "fig19",
		Title:      "PCA-assisted MLR vs normal MLR (per-class accuracy)",
		PaperClaim: "PCA-assisted multiclass classification (custom 8 features/class) is ~7% more accurate than the non-custom reduced classifier",
		Header:     []string{"class", "normal MLR (global-8)", "PCA-assisted MLR (custom-8)"},
	}
	for c := 0; c < workload.NumClasses; c++ {
		rep.Rows = append(rep.Rows, []string{
			workload.Class(c).String(),
			pct(uniformRes.Confusion.Recall(c)),
			pct(assistedRes.Confusion.Recall(c)),
		})
	}
	pu, aa := uniformRes.Accuracy(), assistedRes.Accuracy()
	rep.Rows = append(rep.Rows, []string{"average", pct(pu), pct(aa)})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("PCA-assisted delta: %+.1f%% (paper: ~+7%%); joint MLR on all 16 features: %s",
			(aa-pu)*100, pct(plain16Res.Accuracy())))
	return rep, nil
}

func classNames() []string {
	out := make([]string, workload.NumClasses)
	for i, c := range workload.AllClasses() {
		out[i] = c.String()
	}
	return out
}

func rowsOf(t *dataset.Table) [][]float64 {
	rows := make([][]float64, len(t.Instances))
	for i := range t.Instances {
		rows[i] = t.Instances[i].Features
	}
	return rows
}
