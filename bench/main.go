// Command bench is the repository's benchmark: it generates every input
// from a seed, runs one workload against the reproduction or the
// detection service, checks the outputs, and prints one JSON result line.
//
//	bash bench/run.sh --workload collect --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -repeat 5 -workload all -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off; with --trace 1 the run also replays the workload's calls
// into each layer under spans, writes them as a Chrome trace-event file
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/parallel"
)

// workers is the parallelism of every in-process workload and of the
// daemon: the harness targets a 2-CPU machine and keeps the load
// generator within the same budget (at most 2 goroutines, 2 connections).
const workers = 2

// workloads maps each workload name to its runner, in the order -repeat
// runs them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"collect", runCollect},
	{"study", runStudy},
	{"fleet-http", runFleet},
	{"embed-mlp", runEmbed},
}

// metricDef is one reported metric: its name, unit, and which direction
// counts as better ("lower" or "higher").
type metricDef struct{ name, unit, better string }

// e2eMetrics are reported by every workload with --trace 0. What an item
// is depends on the workload (README.md, "End-to-end metrics"). They are
// costs in CPU time and memory: on a shared host the wall-clock rates and
// latencies move with the neighbours' load, while the CPU time a piece
// of work takes barely does. The wall-clock numbers are in wallMetrics.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_item", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// wallMetrics are what the workload's users wait for: items per second
// of the timed phase, the latency of its operations, and the wall-clock
// time of one set-up. Every run prints them in its "# wall:" header line,
// which -repeat summarizes; a traced run also reports them, as wall.<name>.
var wallMetrics = []metricDef{
	{"items_per_s", "items/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// modules are the program's layers, named after their packages under
// internal/. Each gets a self-time share in every traced run; a layer a
// workload does not call reports 0.
var modules = []string{
	"workload", "micro", "pmu", "trace", "dataset", "parallel",
	"ml", "eval", "pca", "hw", "experiments",
	"infer", "ingest", "quality", "online",
}

// classifiers and studyIDs are the per-classifier and per-experiment
// breakdowns of the study workload.
var (
	classifiers = []string{"OneR", "JRip", "J48", "REPTree", "NaiveBayes", "Logistic", "SVM", "MLP"}
	studyIDs    = []string{"table2", "pcaplots", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}
)

// layerMetrics lists every per-layer metric, reported by every workload
// with --trace 1. Metrics that can be 0 (a layer the workload never
// calls) are shares, counts and rates, never times.
func layerMetrics() []metricDef {
	var defs []metricDef
	for _, m := range wallMetrics {
		defs = append(defs, metricDef{"wall." + m.name, m.unit, m.better})
	}
	defs = append(defs, []metricDef{
		{"spans.coverage", "frac", "higher"},
		{"spans.overhead_frac", "frac", "lower"},
		{"spans.count", "count", "lower"},
		{"gen.late_tail_ms", "ms", "lower"},
		{"proc.gc_cycles_per_mitem", "count", "lower"},
		{"proc.alloc_bytes_per_item", "B", "lower"},
		{"proc.attributed_frac", "frac", "higher"},
	}...)
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".self_frac", "frac", "lower"})
	}
	defs = append(defs,
		metricDef{"micro.instr_per_s", "1/s", "higher"},
		metricDef{"pmu.windows_per_s", "1/s", "higher"},
		metricDef{"dataset.rows", "count", "higher"},
		metricDef{"parallel.collect_speedup_x", "x", "higher"},
		metricDef{"parallel.cv_speedup_x", "x", "higher"},
		metricDef{"eval.cv_rows_per_s", "1/s", "higher"},
		metricDef{"pca.fit_rows_per_s", "1/s", "higher"},
	)
	for _, c := range classifiers {
		defs = append(defs, metricDef{"ml.train_rows_per_s." + c, "1/s", "higher"})
	}
	for _, c := range classifiers {
		defs = append(defs, metricDef{"hw.synth_per_s." + c, "1/s", "higher"})
	}
	for _, id := range studyIDs {
		defs = append(defs, metricDef{"experiments.frac." + id, "frac", "lower"})
	}
	return append(defs,
		metricDef{"infer.predict_windows_per_s", "1/s", "higher"},
		metricDef{"infer.proba_windows_per_s", "1/s", "higher"},
		metricDef{"ingest.decode_windows_per_s", "1/s", "higher"},
		metricDef{"ingest.enqueue_windows_per_s", "1/s", "higher"},
		metricDef{"ingest.requests", "count", "higher"},
		metricDef{"ingest.rejected_frac", "frac", "lower"},
		metricDef{"ingest.queue_max", "count", "lower"},
		metricDef{"ingest.verdict_10ms_frac", "frac", "higher"},
		metricDef{"quality.board_windows_per_s", "1/s", "higher"},
		metricDef{"quality.drift_windows_per_s", "1/s", "higher"},
		metricDef{"quality.snapshots_per_s", "1/s", "higher"},
		metricDef{"online.smooth_windows_per_s", "1/s", "higher"},
	)
}

// run is one workload execution: its inputs, the operations it counted,
// and the metrics it measured.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	bin      string // the hpcmal binary fleet-http spawns
	outDir   string // where span files and daemon logs go

	attempted, failed int64

	// Measurements, turned into e2eMetrics and wallMetrics by report.
	setup      []setupCost
	cpuPerItem time.Duration
	rssMiB     float64
	itemsPerS  float64              // items per second of the timed phase
	latencyMS  map[string][]float64 // per operation kind

	// Per-layer metrics, filled only when traced.
	layer map[string]float64
}

// ops records n operations of which failed failed.
func (r *run) ops(n, failed int) {
	r.attempted += int64(n)
	r.failed += int64(failed)
}

// check records one correctness check; a failed one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, r.workload+": "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupCost is what one set-up repetition took: the CPU time of the
// processes doing it, and the wall-clock time.
type setupCost struct{ cpu, wall time.Duration }

// medianSetup returns the median CPU and wall-clock seconds of the
// run's set-ups.
func (r *run) medianSetup() (cpu, wall float64) {
	var c, w []float64
	for _, s := range r.setup {
		c = append(c, s.cpu.Seconds())
		w = append(w, s.wall.Seconds())
	}
	return median(c), median(w)
}

// report assembles the result line, after the "# latency" and "# wall:"
// header lines. The latency values are the median and the tailQ
// percentile, or the median again when fewer than ten samples lie beyond
// it, over every kind of operation the workload's users wait for.
func (r *run) report() result {
	var all []float64
	for _, kind := range sortedKeys(r.latencyMS) {
		ms := r.latencyMS[kind]
		fmt.Printf("# latency %s: %s\n", kind, describe(ms))
		all = append(all, ms...)
	}
	if len(r.latencyMS) > 1 {
		fmt.Printf("# latency all: %s\n", describe(all))
	}
	_, tl := tail(all)
	setupCPU, setupWall := r.medianSetup()
	wall := map[string]float64{
		"items_per_s":     r.itemsPerS,
		"latency_p50_ms":  median(all),
		"latency_tail_ms": tl,
		"setup_s":         setupWall,
	}
	line := "# wall:"
	for _, d := range wallMetrics {
		line += fmt.Sprintf(" %s=%g", d.name, wall[d.name])
		r.layer["wall."+d.name] = wall[d.name]
	}
	fmt.Println(line)

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	if r.traced {
		for _, d := range layerMetrics() {
			res.Metrics[d.name] = metricValue{r.layer[d.name], d.unit}
		}
		return res
	}
	vals := map[string]float64{
		"setup_s":         setupCPU,
		"cpu_us_per_item": float64(r.cpuPerItem) / float64(time.Microsecond),
		"rss_peak_mb":     r.rssMiB,
	}
	for _, d := range e2eMetrics {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return res
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames()+" (all: only with -repeat)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: replay the workload under spans and report per-layer metrics")
	bin := fs.String("bin", ".bench_build/hpcmal", "hpcmal binary the fleet-http workload runs as its daemon")
	repeat := fs.Int("repeat", 0, "run each workload this many times in fresh processes, alternating the order, and summarize")
	out := fs.String("out", "", "with -repeat: write every run's result to this JSON file")
	compareA := fs.String("compare", "", "compare two -repeat result files: -compare A B")
	fs.Parse(os.Args[1:])

	var err error
	switch {
	case *compareA != "":
		if fs.NArg() != 1 {
			err = fmt.Errorf("-compare takes two files: -compare A B")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", *compareA, fs.Arg(0))
	case *repeat > 0:
		err = repeatRuns(*workload, *seed, *seconds, *trace, *repeat, *bin, *out)
	default:
		err = single(*workload, *seed, *seconds, *trace, *bin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// single runs one workload in this process and prints the provenance
// header and the result line. A failed correctness check still prints
// the result, then exits non-zero.
func single(workload string, seed uint64, seconds, trace int, bin string) error {
	runtime.GOMAXPROCS(workers)
	parallel.SetDefaultWorkers(workers)
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	r := &run{workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: trace == 1, bin: bin, outDir: filepath.Dir(bin),
		latencyMS: map[string][]float64{}, layer: map[string]float64{}}
	var fn func(*run) error
	for _, w := range workloads {
		if w.name == workload {
			fn = w.run
		}
	}
	if fn == nil {
		return fmt.Errorf("unknown workload %q (have %s)", workload, workloadNames())
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	for _, line := range provenance() {
		fmt.Println("# " + line)
	}
	fmt.Printf("# workload: %s seed: %d seconds: %d trace: %d\n", workload, seed, seconds, trace)
	steal0, total0, err0 := machineSteal()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	// How much CPU time a hypervisor withheld during the run: on a shared
	// host it slows every metric of the run alike, so it tells a slow run
	// on a busy host from a slow program.
	if steal1, total1, err1 := machineSteal(); err0 == nil && err1 == nil && total1 > total0 {
		fmt.Printf("# steal: %.1f%% of the machine's CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	} else {
		fmt.Println("# steal: unknown")
	}
	res := r.report()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", workload, name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		os.Exit(1)
	}
	return nil
}
