// Command hpcmal is the command-line front end of the reproduction: it
// generates the HPC malware database, trains and evaluates classifiers,
// runs the PCA feature-reduction study, prices classifiers in hardware,
// and regenerates every table and figure of the paper.
//
// Usage:
//
//	hpcmal list
//	hpcmal gen    -scale 0.1 -seed 1 -out dataset.csv [-arff] [-binary]
//	hpcmal train  -classifier JRip [-binary] [-features a,b,c] [-scale 0.05]
//	hpcmal pca    [-scale 0.05] [-k 8]
//	hpcmal hwcost [-scale 0.05]
//	hpcmal quant  [-precision int8 -cv 5 -scale 0.05]
//	hpcmal repro  [all|ablations|table1|table2|fig6|pcaplots|fig13|...|fig19]
//	hpcmal serve  -listen :9090 [-scale 0.05 -classifier J48] [-replay=false]
//	hpcmal fleetgen -addr 127.0.0.1:9090 [-tenants 4 -endpoints 8 -rounds 10]
//	hpcmal top    -addr 127.0.0.1:9090 [-interval 2s]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "gen":
		err = cmdGen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "pca":
		err = cmdPCA(os.Args[2:])
	case "hwcost":
		err = cmdHWCost(os.Args[2:])
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "emit":
		err = cmdEmit(os.Args[2:])
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "quant":
		err = cmdQuant(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fleetgen":
		err = cmdFleetgen(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "-version", "--version", "version":
		printVersion()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hpcmal: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpcmal: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `hpcmal — HPC-based malware detection (DAC'17 / GMU thesis reproduction)

commands:
  list                         show classifiers, events and experiments
  gen    [-scale -seed -out -arff -binary]   generate the HPC dataset
  train  [-classifier -binary -features -scale -seed -cv]   train + evaluate
  pca    [-scale -seed -k]     PCA ranking and per-class custom features
  hwcost [-scale -seed]        FPGA area/latency for all classifiers
  collect [-dir -perclass -seed]   run samples in containers, write per-
                               sample HPC text files (the paper's Figure 5)
  merge  [-dir -out]           merge text files into one CSV (paper pipeline)
  emit   [-classifier -out -scale -seed]  train and emit synthesizable
                               Verilog for a rule/tree detector
  quant  [-precision -cv -scale -classifier -json]   cross-validate quantized
                               fixed-point programs against float64 and
                               report label agreement + macro-F1 delta
  repro  <id|all|ablations|extensions>   regenerate the paper's evaluation
  serve  [-listen -scale -classifier -rounds -replay=false]   run the online
                               detector as a long-lived daemon with live
                               telemetry and the /api/v1/ingest fleet API
  fleetgen [-addr -tenants -endpoints -batch -rounds -ndjson]   drive a serve
                               daemon with simulated fleet ingest traffic and
                               report windows/sec + latency percentiles
  top    [-addr -interval -once]   terminal dashboard over a serve daemon's
                               range-query API (history, alerts, readiness)
  version                      print build identity (module, VCS revision)

shared flags (every command):
  -parallel N                  bound parallel stages to N workers (default
                               all CPUs; 1 = serial; output is identical
                               at any value)
  -v / -vv / -quiet            debug / trace / errors-only logging on stderr
  -log-json                    JSON log lines instead of text
  -metrics-out FILE            write the run's counters/histograms/spans JSON
  -manifest FILE               override the run manifest path (gen, collect
                               and merge write one next to their output by
                               default; manifests record the worker count
                               and per-stage busy/wall speedup)
  -listen ADDR                 serve live telemetry for the run's duration:
                               /metrics (Prometheus), /events (NDJSON/SSE),
                               /healthz, /api/v1/buildinfo, /api/v1/manifest,
                               /debug/pprof
  -trace-out FILE              export the span tree as Chrome trace-event
                               JSON (open at ui.perfetto.dev)
  -cpuprofile / -memprofile FILE   write pprof profiles`)
}

func cmdList() error {
	fmt.Println("classifiers (binary study, Figure 13):")
	reg := core.Classifiers()
	for _, n := range core.ClassifierNames() {
		s, _ := reg.Lookup(n)
		fmt.Printf("  %-11s %s\n", n, s.Description)
	}
	fmt.Println("multiclass classifiers (Figures 17-19):")
	fmt.Printf("  %s (Logistic = MLR)\n", strings.Join(core.MulticlassNames(), " "))
	fmt.Println("emittable as Verilog:")
	fmt.Printf("  %s\n", strings.Join(core.EmittableNames(), " "))
	fmt.Println("compiled batch inference (internal/infer):")
	fmt.Printf("  %s\n", strings.Join(core.CompilableNames(), " "))
	fmt.Println("experiments:")
	for _, d := range experiments.Catalog() {
		fmt.Printf("  %-15s %s\n", d.ID, d.Title)
	}
	fmt.Println("paper feature set (16 HPC events):")
	for _, e := range pmu.PaperFeatures() {
		fmt.Printf("  %s\n", e)
	}
	fmt.Printf("full PMU catalog: %d events, %d physical counters\n",
		len(pmu.Catalog()), pmu.NumCounters)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	scale := fs.Float64("scale", 0.1, "fraction of the paper's 3,070-sample database")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "dataset.csv", "output path")
	arff := fs.Bool("arff", false, "write WEKA ARFF instead of CSV")
	binary := fs.Bool("binary", false, "binary (benign/malware) labels in ARFF")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if *arff {
		err = tbl.WriteARFF(f, "hpc-malware", *binary)
	} else {
		err = tbl.WriteCSV(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d rows x %d features (+class) to %s\n",
		tbl.NumInstances(), tbl.NumAttributes(), *out)
	for _, c := range workload.AllClasses() {
		fmt.Printf("  %-9s %5d rows\n", c, tbl.ClassCounts()[c])
	}
	samples := 0
	for _, n := range tbl.SampleCounts() {
		samples += n
	}
	of.manifest.Config["format"] = map[bool]string{true: "arff", false: "csv"}[*arff]
	of.manifest.Config["binary"] = fmt.Sprint(*binary)
	if err := of.writeManifest(obs.ManifestPathFor(*out), *seed, *scale,
		[]string{*out}, tbl.NumInstances(), samples); err != nil {
		return err
	}
	return of.finish()
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	name := fs.String("classifier", "J48", "classifier name (see `hpcmal list`)")
	binary := fs.Bool("binary", true, "malware-vs-benign (false = 6-class)")
	features := fs.String("features", "", "comma-separated feature subset")
	scale := fs.Float64("scale", 0.05, "dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	data := fs.String("data", "", "train on an existing CSV instead of generating")
	util := fs.Bool("util", false, "print a Vivado-style utilization report (Artix-7 35T)")
	cv := fs.Int("cv", 0, "stratified `k`-fold cross-validation instead of the supplied-test-set split")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	var tbl *dataset.Table
	var err error
	if *data != "" {
		f, err2 := os.Open(*data)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		tbl, err = dataset.ReadCSV(f)
	} else {
		tbl, err = core.GenerateDataset(core.DatasetConfig{Seed: *seed, Scale: *scale})
	}
	if err != nil {
		return err
	}
	if *cv > 0 {
		if err := cmdTrainCV(tbl, *name, *features, *binary, *cv, *seed); err != nil {
			return err
		}
		of.manifest.Config["classifier"] = *name
		of.manifest.Config["binary"] = fmt.Sprint(*binary)
		of.manifest.Config["cv_folds"] = fmt.Sprint(*cv)
		if err := of.writeManifest("", *seed, *scale, nil,
			tbl.NumInstances(), 0); err != nil {
			return err
		}
		return of.finish()
	}
	cfg := core.DetectorConfig{
		Classifier: *name, Binary: *binary, Seed: *seed,
	}
	if *features != "" {
		cfg.Features = strings.Split(*features, ",")
	}
	res, err := core.RunDetector(tbl, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("classifier: %s  features: %d  accuracy: %.2f%%\n",
		res.Classifier, len(res.Features), res.Eval.Accuracy()*100)
	if !*binary {
		names := make([]string, workload.NumClasses)
		for c := 0; c < workload.NumClasses; c++ {
			names[c] = workload.Class(c).String()
		}
		if err := res.Eval.WriteReport(os.Stdout, names); err != nil {
			return err
		}
	}
	if res.HW != nil {
		fmt.Printf("hardware: %d LUT-equiv (%d DSP, %d BRAM), %d cycles (%.0f ns at 100 MHz)\n",
			res.HW.EquivLUTs, res.HW.Area.DSP, res.HW.Area.BRAM,
			res.HW.Cycles, res.HW.LatencyNs)
		if *util {
			if err := res.HW.WriteUtilization(os.Stdout, hw.Artix7_35T); err != nil {
				return err
			}
			if !res.HW.Fits(hw.Artix7_35T) {
				fmt.Println("warning: design does not fit the xc7a35t")
			}
		}
	}
	of.manifest.Config["classifier"] = *name
	of.manifest.Config["binary"] = fmt.Sprint(*binary)
	if err := of.writeManifest("", *seed, *scale, nil,
		tbl.NumInstances(), 0); err != nil {
		return err
	}
	return of.finish()
}

// cmdTrainCV runs `train -cv k`: stratified k-fold cross-validation of
// one registry classifier, with folds trained on the parallel engine
// (bounded by -parallel; the pooled confusion matrix is identical at any
// worker count).
func cmdTrainCV(tbl *dataset.Table, name, features string, binary bool,
	folds int, seed uint64) error {
	if features != "" {
		var err error
		tbl, err = tbl.SelectFeatures(strings.Split(features, ","))
		if err != nil {
			return err
		}
	}
	// Validate the classifier name once, before any fold trains.
	if _, err := core.NewClassifier(name, seed); err != nil {
		return err
	}
	factory := func() ml.Classifier {
		c, _ := core.NewClassifier(name, seed)
		return c
	}
	rows := make([][]float64, len(tbl.Instances))
	for i := range tbl.Instances {
		rows[i] = tbl.Instances[i].Features
	}
	labels, numClasses := tbl.BinaryLabels(), 2
	if !binary {
		labels, numClasses = tbl.ClassLabels(), workload.NumClasses
	}
	res, err := eval.CrossValidate(factory, rows, labels, numClasses, folds, seed)
	if err != nil {
		return err
	}
	fmt.Printf("classifier: %s  features: %d  %d-fold CV accuracy: %.2f%%\n",
		res.Classifier, tbl.NumAttributes(), folds, res.Accuracy()*100)
	if !binary {
		names := make([]string, workload.NumClasses)
		for c := 0; c < workload.NumClasses; c++ {
			names[c] = workload.Class(c).String()
		}
		return res.WriteReport(os.Stdout, names)
	}
	return nil
}

func cmdPCA(args []string) error {
	fs := flag.NewFlagSet("pca", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	k := fs.Int("k", 8, "custom features per class")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	p, err := core.FitPCA(tbl)
	if err != nil {
		return err
	}
	fmt.Printf("components for 95%% variance: %d of %d\n",
		p.NumComponentsFor(0.95), len(p.Values))
	fmt.Println("global attribute ranking:")
	for i, ra := range p.RankAttributes(0.95) {
		fmt.Printf("  %2d. %-24s %.4f\n", i+1, ra.Name, ra.Score)
	}
	custom, common, err := core.CustomFeatureSets(tbl, *k, 0.95)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-class custom top-%d features (Table 2):\n", *k)
	for _, c := range workload.MalwareClasses() {
		fmt.Printf("  %-9s %s\n", c, strings.Join(custom[c.String()], ", "))
	}
	fmt.Printf("common to all classes (%d): %s\n", len(common), strings.Join(common, ", "))
	if err := of.writeManifest("", *seed, *scale, nil, tbl.NumInstances(), 0); err != nil {
		return err
	}
	return of.finish()
}

func cmdHWCost(args []string) error {
	fs := flag.NewFlagSet("hwcost", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	r := experiments.NewRunner(
		experiments.WithSeed(*seed), experiments.WithScale(*scale))
	for _, id := range []string{"fig14", "fig15", "fig16"} {
		rep, err := r.Run(id)
		if err != nil {
			return err
		}
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
	}
	if err := of.writeManifest("", *seed, *scale, nil, 0, 0); err != nil {
		return err
	}
	return of.finish()
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	dir := fs.String("dir", "hpc-traces", "output directory for per-sample text files")
	perClass := fs.Int("perclass", 5, "samples to collect per class")
	seed := fs.Uint64("seed", 1, "random seed")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	cfg := trace.DefaultConfig()
	sp := obs.StartSpan("collect")
	n, rows := 0, 0
	for _, class := range workload.AllClasses() {
		for i := 0; i < *perClass; i++ {
			s := *seed ^ (uint64(class)*100000+uint64(i)+1)*0x9e3779b97f4a7c15
			tr, err := trace.CollectSample(cfg, class, s)
			if err != nil {
				return err
			}
			path := filepath.Join(*dir, fmt.Sprintf("%s_%03d.txt", class, i))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tr.WriteText(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			n++
			rows += len(tr.Records)
		}
	}
	sp.End()
	fmt.Printf("collected %d samples (%d per class) into %s\n", n, *perClass, *dir)
	if err := of.writeManifest(filepath.Join(*dir, "collect.manifest.json"),
		*seed, 0, []string{*dir}, rows, n); err != nil {
		return err
	}
	return of.finish()
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	dir := fs.String("dir", "hpc-traces", "directory of per-sample text files")
	out := fs.String("out", "dataset.csv", "merged CSV path")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	sp := obs.StartSpan("merge")
	tbl, err := dataset.MergeTextDir(*dir)
	sp.End()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("merged %d rows x %d features into %s\n",
		tbl.NumInstances(), tbl.NumAttributes(), *out)
	if err := of.writeManifest(obs.ManifestPathFor(*out), 0, 0,
		[]string{*out}, tbl.NumInstances(), 0); err != nil {
		return err
	}
	return of.finish()
}

func cmdEmit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	name := fs.String("classifier", "J48",
		"one of: "+strings.Join(core.EmittableNames(), ", "))
	out := fs.String("out", "detector.v", "output Verilog path")
	scale := fs.Float64("scale", 0.05, "dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	module := fs.String("module", "hpc_detector", "Verilog module name")
	tb := fs.Bool("tb", false, "also write a self-checking testbench (<out>_tb.v)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	clf, err := core.NewClassifier(*name, *seed)
	if err != nil {
		return err
	}
	rows := make([][]float64, len(tbl.Instances))
	for i := range tbl.Instances {
		rows[i] = tbl.Instances[i].Features
	}
	if err := clf.Train(rows, tbl.BinaryLabels(), 2); err != nil {
		return err
	}
	comb, err := core.CompileDetector(*name, *module, clf, tbl.NumAttributes())
	if err != nil {
		return err
	}
	comb.SetName(*module)
	// Raw HPC counts are large integers; use an integer datapath so
	// million-scale values do not saturate a Q16.16 grid.
	comb.SetFixedShift(0)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := comb.EmitVerilog(f); err != nil {
		return err
	}
	// Sanity: the netlist agrees with the float model on the dataset.
	agree := 0
	for i, row := range rows {
		v, err := comb.Eval(row)
		if err != nil {
			return err
		}
		if v == clf.Predict(rows[i]) {
			agree++
		}
	}
	fmt.Printf("wrote %s (%d nets) to %s; fixed-point/model agreement %.2f%%\n",
		*module, comb.NumNodes(), *out, 100*float64(agree)/float64(len(rows)))
	if ns, fmax := comb.CriticalPathNs(); ns > 0 {
		fmt.Printf("combinational critical path %.1f ns (single-cycle Fmax ~%.0f MHz)\n", ns, fmax)
	}
	if *tb {
		tbPath := strings.TrimSuffix(*out, ".v") + "_tb.v"
		tf, err := os.Create(tbPath)
		if err != nil {
			return err
		}
		defer tf.Close()
		nVec := 32
		if nVec > len(rows) {
			nVec = len(rows)
		}
		if err := comb.EmitTestbench(tf, rows[:nVec]); err != nil {
			return err
		}
		fmt.Printf("wrote self-checking testbench (%d vectors) to %s\n", nVec, tbPath)
	}
	of.manifest.Config["classifier"] = *name
	of.manifest.Config["module"] = *module
	if err := of.writeManifest("", *seed, *scale, []string{*out},
		tbl.NumInstances(), 0); err != nil {
		return err
	}
	return of.finish()
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	scale := fs.Float64("scale", 0.1, "dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	of := addObsFlags(fs)
	// Experiment IDs and flags may interleave: `repro fig13 -metrics-out m`.
	ids, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	if err := of.setup(); err != nil {
		return err
	}
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	r := experiments.NewRunner(
		experiments.WithSeed(*seed), experiments.WithScale(*scale),
		experiments.WithProgress(func(stage string, done, total int) {
			if !of.Quiet {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, stage)
			}
		}))
	var run []string
	for _, id := range ids {
		switch id {
		case "all":
			run = append(run, experiments.IDs()...)
		case "ablations":
			run = append(run, experiments.AblationIDs()...)
		case "extensions":
			run = append(run, experiments.ExtensionIDs()...)
		default:
			run = append(run, id)
		}
	}
	for _, id := range run {
		rep, err := r.Run(id)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
	}
	// Write a manifest alongside the metrics snapshot (or wherever
	// -manifest points); repro's tables themselves go to stdout.
	manifestPath := ""
	if of.MetricsOut != "" {
		manifestPath = obs.ManifestPathFor(of.MetricsOut)
	}
	of.manifest.Config["experiments"] = strings.Join(run, ",")
	if err := of.writeManifest(manifestPath, *seed, *scale, nil, 0, 0); err != nil {
		return err
	}
	return of.finish()
}
