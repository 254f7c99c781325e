package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/ml/anomaly"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/eval"
	"repro/internal/ml/knn"
	"repro/internal/ml/tree"
	"repro/internal/online"
	"repro/internal/pca"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExtEnsemble compares ensemble learners against their base classifier on
// binary detection (the Khasawneh'15 / Sayadi'18 direction).
func (r *Runner) ExtEnsemble() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	xtr, ytr := rowsOf(train), train.BinaryLabels()
	xte, yte := rowsOf(test), test.BinaryLabels()

	base := func() ml.Classifier {
		c, err := core.NewClassifier("J48", r.cfg.Seed)
		if err != nil {
			panic(err)
		}
		return c
	}
	mlrF := func() ml.Classifier {
		c, err := core.NewClassifier("Logistic", r.cfg.Seed)
		if err != nil {
			panic(err)
		}
		return c
	}
	candidates := []ml.Classifier{
		base(),
		&ensemble.Bagging{Base: base, N: 10, Seed: r.cfg.Seed},
		&ensemble.AdaBoostM1{Base: base, Rounds: 10, Seed: r.cfg.Seed},
		&ensemble.Voting{Factories: []ensemble.Factory{base, mlrF, func() ml.Classifier {
			c, _ := core.NewClassifier("NaiveBayes", r.cfg.Seed)
			return c
		}}},
		&ensemble.Stacking{Factories: []ensemble.Factory{base, mlrF}, Seed: r.cfg.Seed},
		&ensemble.RandomForest{Trees: 20, MaxDepth: 12, Seed: r.cfg.Seed},
	}
	rep := &Report{
		ID:         "ext-ensemble",
		Title:      "Extension: ensemble learning for HPC malware detection (binary)",
		PaperClaim: "(related work: Khasawneh'15, Sayadi'18) ensembles of simple detectors improve run-time detection",
		Header:     []string{"detector", "accuracy", "benign recall", "malware recall"},
	}
	preds := make([][]int, len(candidates))
	for ci, c := range candidates {
		res, err := eval.TrainAndTest(c, xtr, ytr, xte, yte, 2)
		if err != nil {
			return nil, fmt.Errorf("ext-ensemble %s: %w", c.Name(), err)
		}
		preds[ci] = make([]int, len(xte))
		for i := range xte {
			preds[ci][i] = c.Predict(xte[i])
		}
		rep.Rows = append(rep.Rows, []string{
			c.Name(), pct(res.Accuracy()),
			pct(res.Confusion.Recall(0)), pct(res.Confusion.Recall(1)),
		})
	}
	// Significance of the last ensemble (RandomForest) vs the J48 base,
	// via McNemar's paired test on the shared test set.
	mn, err := eval.McNemar(preds[len(preds)-1], preds[0], yte)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"McNemar RandomForest vs J48: chi2=%.2f p=%.4f (%s; forest uniquely right on %d, tree on %d)",
		mn.Statistic, mn.PValue, mcnemarVerdict(mn, "RandomForest", "J48"), mn.BOnly, mn.COnly))
	return rep, nil
}

// mcnemarVerdict words McNemar's test of detector a against detector b
// at alpha 0.05 and, when the difference is significant, names the
// detector that was uniquely right more often.
func mcnemarVerdict(mn *eval.McNemarResult, a, b string) string {
	switch {
	case !mn.Significant(0.05):
		return "not significant"
	case mn.BOnly > mn.COnly:
		return a + " better, significant at alpha=0.05"
	case mn.COnly > mn.BOnly:
		return b + " better, significant at alpha=0.05"
	}
	return "significant at alpha=0.05"
}

// ExtAnomaly evaluates unsupervised detection (Tang'14 direction): fit on
// benign training rows only, score everything else, report AUC and the
// detection/false-positive rates at the calibrated threshold.
func (r *Runner) ExtAnomaly() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	var benignTrain [][]float64
	for _, in := range train.Instances {
		if !in.Class.IsMalware() {
			benignTrain = append(benignTrain, in.Features)
		}
	}
	rep := &Report{
		ID:         "ext-anomaly",
		Title:      "Extension: unsupervised anomaly detection (benign-only training)",
		PaperClaim: "(related work: Tang'14; future work: statistical alternatives to ML) anomaly detectors need no malware labels",
		Header:     []string{"detector", "AUC", "malware detect rate", "benign FP rate"},
	}
	for _, d := range []anomaly.Detector{
		&anomaly.Mahalanobis{LogTransform: true},
		&anomaly.ZScore{LogTransform: true},
	} {
		if err := d.Fit(benignTrain, 0.99); err != nil {
			return nil, fmt.Errorf("ext-anomaly %s: %w", d.Name(), err)
		}
		var scores []float64
		var labels []int
		caught, malware, fp, benign := 0, 0, 0, 0
		for _, in := range test.Instances {
			s := d.Score(in.Features)
			scores = append(scores, s)
			hit := d.Detect(in.Features)
			if in.Class.IsMalware() {
				labels = append(labels, 1)
				malware++
				if hit {
					caught++
				}
			} else {
				labels = append(labels, 0)
				benign++
				if hit {
					fp++
				}
			}
		}
		auc, err := eval.AUC(scores, labels)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			d.Name(), fmt.Sprintf("%.3f", auc),
			pct(float64(caught) / float64(malware)),
			pct(float64(fp) / float64(benign)),
		})
	}
	return rep, nil
}

// ExtOnline measures run-time detection: a binary MLP trained on the
// dataset monitors fresh per-sample traces through decision smoothers,
// reporting per-family detection rate and mean latency in sampling
// periods.
func (r *Runner) ExtOnline() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	// Train on a class-balanced resample so the benign profile stays
	// quiet (the raw 89%-malware mix would alarm on everything).
	labels := tbl.BinaryLabels()
	rows := rowsOf(tbl)
	var bx [][]float64
	var by []int
	for i, l := range labels {
		if l == 0 {
			bx = append(bx, rows[i])
			by = append(by, 0)
		}
	}
	nBenign := len(bx)
	// Stride-sample the malware rows so every family is represented in
	// the balanced set (rows are grouped by class).
	nMalware := len(labels) - nBenign
	stride := nMalware / nBenign
	if stride < 1 {
		stride = 1
	}
	seen := 0
	for i, l := range labels {
		if l != 1 {
			continue
		}
		if seen%stride == 0 && len(bx) < 2*nBenign {
			bx = append(bx, rows[i])
			by = append(by, 1)
		}
		seen++
	}
	clf, err := core.NewClassifier("MLP", r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := clf.Train(bx, by, 2); err != nil {
		return nil, err
	}

	tc := r.ablationTrace()
	tc.WindowsPerSample = 32 // longer watch for latency measurement
	if tc.SamplePeriod <= 0 {
		tc.SamplePeriod = 0.01
	}
	const perClass = 6

	rep := &Report{
		ID:         "ext-online",
		Title:      "Extension: run-time detection with decision smoothing (MLP + majority vote)",
		PaperClaim: "(related work: Demme'13, Ozsoy'15) sustained malicious behaviour should alarm within tens of ms; benign should not",
		Header:     []string{"class", "detect rate", "mean latency ms"},
	}
	for _, class := range workload.AllClasses() {
		// Fresh traces with seeds outside the training range, collected in
		// parallel (seeds derive from the trace index, so the batch is
		// bit-identical at any worker count).
		traces, err := trace.CollectBatch(tc, class, perClass, func(i int) uint64 {
			return r.cfg.Seed ^ (uint64(class)*1000+uint64(i)+1)*0x9e3779b97f4a7c15 ^ 0xabcdef
		}, r.workers())
		if err != nil {
			return nil, err
		}
		results, err := online.MonitorAll(clf, traces,
			online.WithSmoother(func() online.Smoother {
				return &online.MajorityVoter{Window: 8, Threshold: 0.6}
			}),
			online.WithSamplePeriod(tc.SamplePeriod),
			online.WithParallelism(r.workers()))
		if err != nil {
			return nil, err
		}
		detected, latSum := 0, 0.0
		for _, res := range results {
			if res.Detected {
				detected++
				latSum += res.LatencySeconds
			}
		}
		lat := "-"
		if detected > 0 {
			lat = fmt.Sprintf("%.0f", latSum/float64(detected)*1000)
		}
		rep.Rows = append(rep.Rows, []string{
			class.String(), pct(float64(detected) / float64(perClass)), lat,
		})
	}
	rep.Notes = append(rep.Notes,
		"benign row reports the false-alarm rate; malware rows the detection rate")
	return rep, nil
}

// ExtFeatureAgreement cross-validates Table 2 with an independent
// feature-selection method: for each malware class, a J48 trained on
// class-vs-benign ranks features by split importance; the report shows
// the overlap between the tree's top-8 and the PCA custom top-8.
func (r *Runner) ExtFeatureAgreement() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	custom, _, err := core.CustomFeatureSets(tbl, 8, 0.95)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "ext-features",
		Title:      "Extension: PCA custom sets vs decision-tree feature importance",
		PaperClaim: "(validation) two independent selection methods should largely agree on each family's informative counters",
		Header:     []string{"class", "overlap/8", "tree-only features"},
	}
	for _, class := range workload.MalwareClasses() {
		sub := tbl.FilterClasses(class, workload.Benign)
		j, err := core.NewClassifier("J48", r.cfg.Seed)
		if err != nil {
			return nil, err
		}
		if err := j.Train(rowsOf(sub), sub.BinaryLabels(), 2); err != nil {
			return nil, err
		}
		imp := j.(*tree.J48).FeatureImportance(tbl.NumAttributes())
		idx := make([]int, len(imp))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
		treeTop := map[string]bool{}
		var treeOnly []string
		inPCA := map[string]bool{}
		for _, f := range custom[class.String()] {
			inPCA[f] = true
		}
		overlap := 0
		for _, i := range idx[:8] {
			name := tbl.Attributes[i]
			treeTop[name] = true
			if inPCA[name] {
				overlap++
			} else if imp[i] > 0 {
				treeOnly = append(treeOnly, name)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			class.String(), fmt.Sprintf("%d/8", overlap), strings.Join(treeOnly, ", "),
		})
	}
	return rep, nil
}

// ExtLearningCurve sweeps the database size: how much data does each
// detector need? The thesis's future work calls out the limited database
// as a key limitation.
func (r *Runner) ExtLearningCurve() (*Report, error) {
	rep := &Report{
		ID:         "ext-learncurve",
		Title:      "Extension: binary accuracy vs database scale (16 features)",
		PaperClaim: "(future work: 'limitations like limited database') accuracy should grow with more samples",
		Header:     []string{"scale", "samples", "J48", "MLP"},
	}
	scales := []float64{0.05, 0.1, 0.2}
	if r.cfg.Scale < 0.2 {
		scales = []float64{0.25 * r.cfg.Scale, 0.5 * r.cfg.Scale, r.cfg.Scale}
	}
	for _, scale := range scales {
		tbl, err := core.GenerateDataset(core.DatasetConfig{
			Seed: r.cfg.Seed, Scale: scale, Trace: r.ablationTrace(),
		})
		if err != nil {
			return nil, err
		}
		samples := 0
		for _, n := range tbl.SampleCounts() {
			samples += n
		}
		row := []string{fmt.Sprintf("%.3f", scale), fmt.Sprintf("%d", samples)}
		for _, name := range []string{"J48", "MLP"} {
			res, err := core.RunDetector(tbl, core.DetectorConfig{
				Classifier: name, Binary: true, Seed: r.cfg.Seed, SkipHardware: true,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.Eval.Accuracy()))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// ExtQuantization asks how many low-order HPC counter bits the hardware
// detector can drop: the trained J48 is compiled to its integer-datapath
// netlist and evaluated with inputs truncated to ever-coarser grids. A
// narrow counter is cheaper to snapshot and route on-chip, so the knee of
// this curve sets the deployable counter width.
func (r *Runner) ExtQuantization() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	clf, err := core.NewClassifier("J48", r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := clf.Train(rowsOf(train), train.BinaryLabels(), 2); err != nil {
		return nil, err
	}
	comb, err := hw.CompileTree(clf.(*tree.J48), tbl.NumAttributes())
	if err != nil {
		return nil, err
	}
	comb.SetFixedShift(0) // integer datapath for raw counts

	rep := &Report{
		ID:         "ext-quant",
		Title:      "Extension: detector accuracy vs HPC counter truncation (J48 netlist)",
		PaperClaim: "(hardware design space) detection should survive dropping many low-order counter bits",
		Header:     []string{"bits dropped", "accuracy", "agreement with full precision"},
	}
	yTest := test.BinaryLabels()
	// Full-precision netlist predictions as the agreement baseline.
	full := make([]int, len(test.Instances))
	for i, in := range test.Instances {
		v, err := comb.Eval(in.Features)
		if err != nil {
			return nil, err
		}
		full[i] = v
	}
	for _, drop := range []uint{0, 4, 8, 12, 16} {
		correct, agree := 0, 0
		mask := float64(int64(1) << drop)
		for i, in := range test.Instances {
			tr := make([]float64, len(in.Features))
			for j, v := range in.Features {
				tr[j] = float64(int64(v/mask)) * mask
			}
			v, err := comb.Eval(tr)
			if err != nil {
				return nil, err
			}
			if v == yTest[i] {
				correct++
			}
			if v == full[i] {
				agree++
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", drop),
			pct(float64(correct) / float64(len(yTest))),
			pct(float64(agree) / float64(len(yTest))),
		})
	}
	return rep, nil
}

// ExtKNN evaluates the instance-based learner of Demme et al. (ISCA'13,
// the paper's foundational reference): k-NN is accurate but its hardware
// "model" is the entire training set, so its FPGA cost explodes — the
// sharpest illustration of the paper's accuracy-per-area argument.
func (r *Runner) ExtKNN() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	k := knn.New()
	if err := k.Train(rowsOf(train), train.BinaryLabels(), 2); err != nil {
		return nil, err
	}
	kRes, err := eval.Evaluate(k, rowsOf(test), test.BinaryLabels(), 2)
	if err != nil {
		return nil, err
	}
	kDesign, kBudget := hw.LowerKNN(k.NumStored(), k.Dim(), 5)
	kSched, err := hw.ScheduleDesign(kDesign, kBudget)
	if err != nil {
		return nil, err
	}
	var kArea hw.Area
	for kind, n := range kSched.Used {
		kArea.Add(hw.AreaOf(kind).Scale(n))
	}
	kArea.Add(hw.StorageArea(kDesign.StorageBits))

	jRes, err := core.RunDetector(tbl, core.DetectorConfig{
		Classifier: "J48", Binary: true, Seed: r.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:         "ext-knn",
		Title:      "Extension: instance-based learning (Demme'13 KNN) vs a tree in hardware",
		PaperClaim: "(related work: Demme'13 used KNN offline) exemplar memory makes instance-based detection unaffordable on-chip",
		Header:     []string{"detector", "accuracy", "equiv LUTs", "BRAM", "cycles"},
		Rows: [][]string{
			{"KNN (k=5)", pct(kRes.Accuracy()),
				fmt.Sprintf("%d", kArea.EquivalentLUTs()),
				fmt.Sprintf("%d", kArea.BRAM),
				fmt.Sprintf("%d", kSched.Cycles)},
			{"J48", pct(jRes.Eval.Accuracy()),
				fmt.Sprintf("%d", jRes.HW.EquivLUTs),
				fmt.Sprintf("%d", jRes.HW.Area.BRAM),
				fmt.Sprintf("%d", jRes.HW.Cycles)},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"KNN stores %d exemplars x %d features; its area is %.0fx the tree's",
		k.NumStored(), k.Dim(),
		float64(kArea.EquivalentLUTs())/float64(jRes.HW.EquivLUTs)))
	return rep, nil
}

// ExtSVD compares SVD-based feature selection (HPCMalHunter, thesis
// reference [2]: Bahador et al. select behaviour features via singular
// value decomposition) against this repository's PCA rankings on the
// same one-vs-rest MLR ensemble.
func (r *Runner) ExtSVD() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	train, test, err := tbl.SplitBySample(0.7, r.cfg.Seed)
	if err != nil {
		return nil, err
	}

	ranked, err := pca.SVDRankAttributes(train.FeatureMatrix(), train.Attributes, 0.95)
	if err != nil {
		return nil, err
	}
	svdTop := make([]string, 8)
	for i := 0; i < 8; i++ {
		svdTop[i] = ranked[i].Name
	}
	global, err := core.GlobalTopFeatures(train, 8, 0.95)
	if err != nil {
		return nil, err
	}

	evalSet := func(features []string) (float64, error) {
		m, err := core.TrainUniformAssisted(train, features, r.cfg.Seed)
		if err != nil {
			return 0, err
		}
		res, err := eval.Evaluate(m, rowsOf(test), test.ClassLabels(), workload.NumClasses)
		if err != nil {
			return 0, err
		}
		return res.Accuracy(), nil
	}
	svdAcc, err := evalSet(svdTop)
	if err != nil {
		return nil, err
	}
	pcaAcc, err := evalSet(global)
	if err != nil {
		return nil, err
	}
	assisted, err := core.TrainPCAAssisted(train, 8, 0.95, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	aRes, err := eval.Evaluate(assisted, rowsOf(test), test.ClassLabels(), workload.NumClasses)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:         "ext-svd",
		Title:      "Extension: SVD feature selection (HPCMalHunter) vs PCA rankings",
		PaperClaim: "(related work: Bahador'14 selects features by SVD) variance-driven selectors should land close; discriminative custom sets ahead",
		Header:     []string{"selection", "multiclass accuracy"},
		Rows: [][]string{
			{"SVD global top-8", pct(svdAcc)},
			{"PCA global top-8", pct(pcaAcc)},
			{"PCA custom 8/class", pct(aRes.Accuracy())},
		},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("SVD top-8: %s", strings.Join(svdTop, ", ")))
	return rep, nil
}

// ExtRateFeatures asks whether activity-normalized features beat raw
// counts: every event is divided by the window's bus-cycles (the only
// time-base among the 16 paper features), removing the absolute activity
// level that raw counts carry. Later HPC-detection work normalizes this
// way; the paper (like Demme'13) feeds raw counts.
func (r *Runner) ExtRateFeatures() (*Report, error) {
	tbl, err := r.Dataset()
	if err != nil {
		return nil, err
	}
	busIdx, err := tbl.AttributeIndex("bus-cycles")
	if err != nil {
		return nil, err
	}
	rates := tbl.Clone()
	for _, in := range rates.Instances {
		denom := in.Features[busIdx] + 1
		for j := range in.Features {
			if j != busIdx {
				in.Features[j] /= denom
			}
		}
	}
	rep := &Report{
		ID:         "ext-rates",
		Title:      "Extension: raw counts vs bus-cycle-normalized rates (binary)",
		PaperClaim: "(design space) the paper feeds raw counts; normalization removes the activity-level signal but exposes behavioural shape",
		Header:     []string{"classifier", "raw counts", "rates"},
	}
	for _, name := range []string{"J48", "MLP"} {
		raw, err := core.RunDetector(tbl, core.DetectorConfig{
			Classifier: name, Binary: true, Seed: r.cfg.Seed, SkipHardware: true,
		})
		if err != nil {
			return nil, err
		}
		rate, err := core.RunDetector(rates, core.DetectorConfig{
			Classifier: name, Binary: true, Seed: r.cfg.Seed, SkipHardware: true,
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			name, pct(raw.Eval.Accuracy()), pct(rate.Eval.Accuracy()),
		})
	}
	return rep, nil
}
