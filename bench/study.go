package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/ml/eval"
)

// studyScale sizes the study's database: 93 samples, 1,488 rows. Each
// pass of the nine experiments trains and synthesizes every classifier
// on it, so the simulator does no work in the timed phase.
const studyScale = 0.03

func runStudy(r *run) error {
	var runner *experiments.Runner
	seed := validSeeds(r.seed, studyScale, 1)[0]
	for i := 0; i < setupReps; i++ {
		if err := r.timeSetup(func() error {
			runner = experiments.NewRunner(experiments.WithSeed(seed),
				experiments.WithScale(studyScale), experiments.WithParallelism(workers))
			_, err := runner.Dataset()
			return err
		}); err != nil {
			return err
		}
	}

	// One operation is one pass over the study: the nine experiments a
	// `hpcmal repro` of the paper's classifier figures renders.
	var digests []string
	clk := newWallClock()
	cost := startPhase()
	outs := closedLoop(clk, clk.now()+r.seconds, 1, func(int) bool {
		d, err := studyPass(runner, nil)
		if err != nil {
			r.logf("pass %d: %v", len(digests), err)
			return false
		}
		digests = append(digests, d)
		return true
	})
	cost.finish(r, float64(len(outs)*len(studyIDs)))
	r.ops(len(outs), countFailed(outs))
	if len(digests) == 0 {
		return fmt.Errorf("no pass completed")
	}
	var rates []float64
	for _, o := range outs {
		ms := float64(o.latency()) / float64(time.Millisecond)
		r.latencyMS["pass"] = append(r.latencyMS["pass"], ms)
		rates = append(rates, float64(len(studyIDs))/(ms/1e3))
	}
	r.itemsPerS = median(rates)
	r.layer["gen.late_tail_ms"] = lateTailMS(outs)
	for i, d := range digests[1:] {
		r.check(d == digests[0], "study: pass %d rendered differently from pass 0", i+1)
	}
	pinned(r, "study", digests[0])
	if r.traced {
		return traceStudy(r, runner, median(r.latencyMS["pass"]))
	}
	return nil
}

// studyPass runs every study experiment once and returns the SHA-256 of
// the rendered reports, under spans when rec is non-nil.
func studyPass(runner *experiments.Runner, rec *recorder) (string, error) {
	var buf bytes.Buffer
	for _, id := range studyIDs {
		root := rec.begin("bench.experiment")
		sp := rec.begin("experiments.Runner.Run." + id)
		rep, err := runner.Run(id)
		rec.end(sp, 1)
		rec.end(root, 1)
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		if err := rep.Render(&buf); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// traceStudy runs one pass under spans, then probes the layers the
// experiments call internally: training and synthesizing each
// classifier, 10-fold cross-validation and PCA, on the study's database.
func traceStudy(r *run, runner *experiments.Runner, plainMS float64) error {
	tbl, err := runner.Dataset()
	if err != nil {
		return err
	}
	rs := newRecorders()
	rec := rs.get()
	t := time.Now()
	if _, err := studyPass(runner, rec); err != nil {
		return err
	}
	traced := time.Since(t)
	passSpans := rs.summarize()

	x := make([][]float64, tbl.NumInstances())
	for i := range tbl.Instances {
		x[i] = tbl.Instances[i].Features
	}
	y := tbl.BinaryLabels()
	rows := int64(len(x))
	for _, name := range classifiers {
		root := rec.begin("bench.probe")
		c, err := core.NewClassifier(name, r.seed)
		if err != nil {
			return err
		}
		sp := rec.begin("ml.Classifier.Train." + name)
		err = c.Train(x, y, 2)
		rec.end(sp, rows)
		if err != nil {
			return fmt.Errorf("training %s: %w", name, err)
		}
		sp = rec.begin("hw.SynthesizeTrained." + name)
		_, err = core.SynthesizeTrained(c, 2, tbl.NumAttributes())
		rec.end(sp, 1)
		rec.end(root, 0)
		if err != nil {
			return fmt.Errorf("synthesizing %s: %w", name, err)
		}
	}
	cv := func(workers int) (time.Duration, error) {
		factory := func() ml.Classifier {
			c, _ := core.NewClassifier("J48", r.seed)
			return c
		}
		root := rec.begin("bench.probe")
		sp := rec.begin("eval.CrossValidate")
		t := time.Now()
		_, err := eval.CrossValidate(factory, x, y, 2, 10, r.seed, eval.CVWorkers(workers))
		d := time.Since(t)
		rec.end(sp, rows)
		rec.end(root, 0)
		return d, err
	}
	serialCV, err := cv(1)
	if err != nil {
		return err
	}
	parCV, err := cv(workers)
	if err != nil {
		return err
	}
	root := rec.begin("bench.probe")
	sp := rec.begin("pca.Fit")
	_, err = core.FitPCA(tbl)
	rec.end(sp, rows)
	rec.end(root, 0)
	if err != nil {
		return err
	}

	sum := rs.summarize()
	spanLayers(r, sum, time.Duration(plainMS*float64(time.Millisecond)), traced)
	r.layer["proc.attributed_frac"] = float64(passSpans.layerNS) / float64(len(studyIDs)) / float64(r.cpuPerItem)
	r.layer["dataset.rows"] = float64(rows)
	for _, name := range classifiers {
		r.layer["ml.train_rows_per_s."+name] = sum.rate("ml.Classifier.Train." + name)
		r.layer["hw.synth_per_s."+name] = sum.rate("hw.SynthesizeTrained." + name)
	}
	for _, id := range studyIDs {
		r.layer["experiments.frac."+id] = passSpans.selfShare("experiments.Runner.Run." + id)
	}
	r.layer["parallel.cv_speedup_x"] = float64(serialCV) / float64(parCV)
	r.layer["eval.cv_rows_per_s"] = float64(rows) / parCV.Seconds()
	r.layer["pca.fit_rows_per_s"] = sum.rate("pca.Fit")
	return writeSpans(r, rs)
}
