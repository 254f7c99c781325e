// Package core is the top-level API of the reproduction: it wires the
// simulated measurement substrate (workload → container → PMU → dataset)
// to the ML classifiers, the PCA feature-reduction stage, and the FPGA
// cost model, exposing the handful of calls the command-line tools,
// examples and benchmarks are built from.
//
// The typical flow, mirroring the paper end to end:
//
//	tbl, _ := core.GenerateDataset(core.DatasetConfig{Seed: 1, Scale: 0.1})
//	res, _ := core.RunDetector(tbl, core.DetectorConfig{Classifier: "JRip", Binary: true})
//	fmt.Println(res.Eval.Accuracy(), res.HW.EquivLUTs)
package core

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/eval"
	"repro/internal/pca"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DatasetConfig controls end-to-end dataset generation.
type DatasetConfig struct {
	// Seed drives every random choice.
	Seed uint64
	// Scale shrinks the paper's Table 1 sample counts proportionally
	// (1.0 = full 3,070-sample database; 0.05 ≈ 150 samples). Values
	// outside (0, 1] are clamped to 1.
	Scale float64
	// Trace overrides the measurement configuration; zero value means
	// the paper defaults (16 features, 10 ms, multiplexed 8-counter PMU).
	Trace trace.Config
}

// GenerateDataset builds the labelled HPC dataset with the paper's class
// distribution at the requested scale.
func GenerateDataset(cfg DatasetConfig) (*dataset.Table, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 1
	}
	gen := dataset.GenConfig{
		Trace:           cfg.Trace,
		SamplesPerClass: map[workload.Class]int{},
		Seed:            cfg.Seed,
	}
	for c, n := range workload.PaperSampleCounts() {
		scaled := int(float64(n)*cfg.Scale + 0.5)
		if scaled < 2 {
			scaled = 2
		}
		gen.SamplesPerClass[c] = scaled
	}
	return dataset.Generate(gen)
}

// trainFrac is the training share of a RunDetector split: the paper's
// 70/30.
const trainFrac = 0.7

// DetectorConfig describes one train/evaluate run.
type DetectorConfig struct {
	// Classifier is one of ClassifierNames().
	Classifier string
	// Features restricts the attribute set (nil = all 16).
	Features []string
	// Binary selects malware-vs-benign; false runs the 6-class problem.
	Binary bool
	// Seed controls the split and stochastic learners.
	Seed uint64
	// SplitByRows uses the paper's row-level 70/30 split; the default
	// splits by application sample (leakage-free).
	SplitByRows bool
	// SkipHardware disables the FPGA cost model step.
	SkipHardware bool
}

// DetectorResult bundles evaluation and hardware cost.
type DetectorResult struct {
	Classifier string
	Features   []string
	Eval       *eval.Result
	// HW is nil when SkipHardware was set.
	HW *hw.Report
}

// RunDetector trains and evaluates one classifier on the table per the
// paper's protocol and (unless disabled) synthesizes its hardware cost.
func RunDetector(tbl *dataset.Table, cfg DetectorConfig) (*DetectorResult, error) {
	work := tbl
	feats := cfg.Features
	if len(feats) > 0 {
		var err error
		work, err = tbl.SelectFeatures(feats)
		if err != nil {
			return nil, err
		}
	} else {
		feats = append([]string{}, tbl.Attributes...)
	}

	var train, test *dataset.Table
	var err error
	if cfg.SplitByRows {
		train, test, err = work.SplitRows(trainFrac, cfg.Seed)
	} else {
		train, test, err = work.SplitBySample(trainFrac, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}

	c, err := NewClassifier(cfg.Classifier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	numClasses := workload.NumClasses
	var yTrain, yTest []int
	if cfg.Binary {
		numClasses = 2
		yTrain, yTest = train.BinaryLabels(), test.BinaryLabels()
	} else {
		yTrain, yTest = train.ClassLabels(), test.ClassLabels()
	}
	res, err := eval.TrainAndTest(c,
		featureRows(train), yTrain, featureRows(test), yTest, numClasses)
	if err != nil {
		return nil, err
	}

	out := &DetectorResult{Classifier: cfg.Classifier, Features: feats, Eval: res}
	if !cfg.SkipHardware {
		out.HW, err = SynthesizeTrained(c, numClasses, len(feats))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SynthesizeTrained runs the FPGA cost model on any trained classifier
// from this repository.
func SynthesizeTrained(c ml.Classifier, numClasses, dim int) (*hw.Report, error) {
	if nb, ok := c.(*bayes.NaiveBayes); ok {
		return hw.SynthesizeBayes(nb, numClasses, dim)
	}
	return hw.Synthesize(c)
}

// featureRows exposes a table's features as [][]float64 without copying.
func featureRows(t *dataset.Table) [][]float64 {
	rows := make([][]float64, len(t.Instances))
	for i := range t.Instances {
		rows[i] = t.Instances[i].Features
	}
	return rows
}

// FitPCA fits PCA over all rows of the table.
func FitPCA(tbl *dataset.Table) (*pca.PCA, error) {
	return pca.Fit(tbl.FeatureMatrix(), tbl.Attributes)
}

// CustomFeatureSets reproduces Table 2: per malware class, PCA over that
// class's rows together with the benign rows yields a top-k custom
// feature set (ranked by cluster-separating component loadings, the
// thesis's PCA+clustering hybrid); the intersection across classes is the
// common set.
func CustomFeatureSets(tbl *dataset.Table, k int, coverage float64) (custom map[string][]string, common []string, err error) {
	groups := make(map[string]pca.Group)
	for _, c := range workload.MalwareClasses() {
		sub := tbl.FilterClasses(c, workload.Benign)
		if sub.NumInstances() < 2 {
			return nil, nil, fmt.Errorf("core: class %v has too few rows for PCA", c)
		}
		groups[c.String()] = pca.Group{X: sub.FeatureMatrix(), Labels: sub.BinaryLabels()}
	}
	return pca.ClassCustomFeatures(groups, tbl.Attributes, k, coverage)
}

// customFeatureSetsVsRest ranks features per class by discriminative PCA
// with one-vs-rest labels (class against everything else), which is what
// each ensemble expert must separate.
func customFeatureSetsVsRest(tbl *dataset.Table, k int, coverage float64) (map[string][]string, error) {
	x := tbl.FeatureMatrix()
	p, err := pca.Fit(x, tbl.Attributes)
	if err != nil {
		return nil, err
	}
	custom := make(map[string][]string)
	for _, c := range workload.AllClasses() {
		labels := make([]int, len(tbl.Instances))
		for i, in := range tbl.Instances {
			if in.Class == c {
				labels[i] = 1
			}
		}
		ranked, err := p.RankAttributesDiscriminative(x, labels, coverage)
		if err != nil {
			return nil, fmt.Errorf("core: ranking for class %v: %w", c, err)
		}
		kk := k
		if kk > len(ranked) {
			kk = len(ranked)
		}
		names := make([]string, kk)
		for i := 0; i < kk; i++ {
			names[i] = ranked[i].Name
		}
		custom[c.String()] = names
	}
	return custom, nil
}

// GlobalTopFeatures ranks all 16 attributes by PCA over the whole table
// and returns the top k (the paper's non-custom reduced feature set).
func GlobalTopFeatures(tbl *dataset.Table, k int, coverage float64) ([]string, error) {
	p, err := FitPCA(tbl)
	if err != nil {
		return nil, err
	}
	return p.TopAttributes(k, coverage), nil
}

// GlobalTopFeaturesBinary ranks the attributes by discriminative PCA with
// malware-vs-benign labels — the reduced feature sets the binary study
// (Figure 13) feeds its classifiers.
func GlobalTopFeaturesBinary(tbl *dataset.Table, k int, coverage float64) ([]string, error) {
	x := tbl.FeatureMatrix()
	p, err := pca.Fit(x, tbl.Attributes)
	if err != nil {
		return nil, err
	}
	ranked, err := p.RankAttributesDiscriminative(x, tbl.BinaryLabels(), coverage)
	if err != nil {
		return nil, err
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = ranked[i].Name
	}
	return names, nil
}

// PCAPlotPoints projects the rows of the named malware class and the
// benign class onto the top two principal components (the paper's
// Figures 9-12). Returned labels are 1 for malware rows.
func PCAPlotPoints(tbl *dataset.Table, class workload.Class) (points [][2]float64, labels []int, err error) {
	if !class.IsMalware() {
		return nil, nil, fmt.Errorf("core: PCA plots are per malware family, got %v", class)
	}
	sub := tbl.FilterClasses(class, workload.Benign)
	if sub.NumInstances() < 3 {
		return nil, nil, fmt.Errorf("core: too few rows for class %v", class)
	}
	p, err := pca.Fit(sub.FeatureMatrix(), sub.Attributes)
	if err != nil {
		return nil, nil, err
	}
	for _, in := range sub.Instances {
		proj, err := p.Project(in.Features, 2)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, [2]float64{proj[0], proj[1]})
		if in.Class.IsMalware() {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	return points, labels, nil
}

// SortedFeatureList returns feature names sorted alphabetically; handy
// for stable output in tools.
func SortedFeatureList(features []string) []string {
	out := append([]string{}, features...)
	sort.Strings(out)
	return out
}
