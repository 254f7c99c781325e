package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// collectScale sizes one timed operation: a 32-sample, 512-row
	// Table-1 database, about half a second on two workers.
	collectScale = 0.01
	// collectWarmScale sizes the warm-up builds that stand in for set-up:
	// collect has none of its own, and the first builds of a process run
	// slower while the heap grows.
	collectWarmScale = 0.005
	// setupReps is how many times every workload sets up; setup_s is the
	// median.
	setupReps = 5
)

// job is one application sample of a database build, derived exactly as
// core.GenerateDataset and dataset.Generate derive it. The replay check
// compares against the program's own table, so a drift between this
// copy and the program fails the run instead of going unnoticed.
type job struct {
	class workload.Class
	seed  uint64
}

func collectJobs(seed uint64, scale float64) []job {
	var jobs []job
	counts := workload.PaperSampleCounts()
	for _, c := range workload.AllClasses() {
		n := max(int(float64(counts[c])*scale+0.5), 2)
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{c, seed ^ (uint64(len(jobs))+1)*0x9e3779b97f4a7c15})
		}
	}
	return jobs
}

// validSeeds derives n database seeds from seed, skipping any whose
// database at the given scale holds a sample the workload generator
// rejects: about one sample in 13,000 gets an instruction mix that does
// not sum to one, and the benchmark times only builds that succeed.
func validSeeds(seed uint64, scale float64, n int) []uint64 {
	var out []uint64
	for s := seed * 1_000_003; len(out) < n; s++ {
		ok := true
		for _, j := range collectJobs(s, scale) {
			if _, err := workload.NewSample(j.class, j.seed); err != nil {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// datasetTraceConfig is the measurement configuration core.GenerateDataset
// uses: the zero trace.Config, whose defaults leave PMU multiplexing off.
func datasetTraceConfig() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Multiplex = false
	return cfg
}

func runCollect(r *run) error {
	for _, s := range validSeeds(^r.seed, collectWarmScale, setupReps) {
		if err := r.timeSetup(func() error {
			_, err := core.GenerateDataset(core.DatasetConfig{Seed: s, Scale: collectWarmScale})
			return err
		}); err != nil {
			return err
		}
	}

	wantRows := len(collectJobs(0, collectScale)) * trace.DefaultConfig().WindowsPerSample
	// More seeds than a run can use: a build takes well over 0.1 s.
	seeds := validSeeds(r.seed, collectScale, 256)
	var first *dataset.Table
	var rows int
	units := 0
	clk := newWallClock()
	cost := startPhase()
	outs := closedLoop(clk, clk.now()+r.seconds, 1, func(int) bool {
		tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: seeds[units], Scale: collectScale})
		units++
		if err != nil {
			r.logf("unit %d: %v", units-1, err)
			return false
		}
		if first == nil {
			first = tbl
		}
		rows += tbl.NumInstances()
		return tbl.NumInstances() == wantRows
	})
	cost.finish(r, float64(rows))
	failed := countFailed(outs)
	r.ops(len(outs), failed)
	if first == nil {
		return fmt.Errorf("no database was built")
	}
	var rates []float64
	for _, o := range outs {
		ms := float64(o.latency()) / float64(time.Millisecond)
		r.latencyMS["build"] = append(r.latencyMS["build"], ms)
		rates = append(rates, float64(wantRows)/(ms/1e3))
	}
	r.itemsPerS = median(rates)
	r.layer["gen.late_tail_ms"] = lateTailMS(outs)

	h := sha256.New()
	if err := first.WriteCSV(h); err != nil {
		return err
	}
	pinned(r, "collect", hex.EncodeToString(h.Sum(nil)))

	// The replay re-executes a database build from the layers' public
	// calls; it must reproduce the program's records bit for bit, so the
	// traced numbers describe the computation the timed phase ran.
	jobs := collectJobs(seeds[0], collectScale)
	for _, j := range jobs[:2] {
		want, err := trace.CollectSample(trace.Config{}, j.class, j.seed)
		if err != nil {
			return err
		}
		got, err := replaySample(nil, datasetTraceConfig(), j)
		if err != nil {
			return err
		}
		r.check(sameRecords(got, want.Records), "collect: replay of sample %v/%#x differs from trace.CollectSample", j.class, j.seed)
	}
	if r.traced {
		return traceCollect(r, seeds[0], jobs, first)
	}
	return nil
}

// traceCollect replays the first database of the run at two workers,
// once untraced and once under spans, and derives the collect chain's
// per-layer metrics.
func traceCollect(r *run, seed uint64, jobs []job, want *dataset.Table) error {
	cfg := datasetTraceConfig()
	replay := func(rs *recorders) ([][]trace.Record, time.Duration, error) {
		out := make([][]trace.Record, len(jobs))
		errs := make([]error, workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		runtime.GC() // start both replays on a settled heap
		t := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, rec *recorder) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) || errs[w] != nil {
						return
					}
					out[i], errs[w] = replaySample(rec, cfg, jobs[i])
				}
			}(w, rs.get())
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		return out, time.Since(t), nil
	}
	_, plain, err := replay(nil)
	if err != nil {
		return err
	}
	rs := newRecorders()
	got, traced, err := replay(rs)
	if err != nil {
		return err
	}
	windows := cfg.WindowsPerSample
	for i, recs := range got {
		ok := len(recs) == windows
		for w := 0; ok && w < windows; w++ {
			ok = sameValues(recs[w].Values(), want.Instances[i*windows+w].Features)
		}
		r.check(ok, "collect: traced replay of sample %d differs from the database rows", i)
	}

	// Serial against parallel build of the same database: what the
	// parallel layer buys on this machine.
	gen := func(workers int) (time.Duration, error) {
		t := time.Now()
		spc := map[workload.Class]int{}
		for _, j := range jobs {
			spc[j.class]++
		}
		_, err := dataset.Generate(dataset.GenConfig{SamplesPerClass: spc, Seed: seed, Parallelism: workers})
		return time.Since(t), err
	}
	serial, err := gen(1)
	if err != nil {
		return err
	}
	par, err := gen(workers)
	if err != nil {
		return err
	}

	sum := rs.summarize()
	rows := float64(len(jobs) * windows)
	spanLayers(r, sum, plain, traced)
	r.layer["proc.attributed_frac"] = float64(sum.layerNS) / rows / float64(r.cpuPerItem)
	r.layer["micro.instr_per_s"] = sum.rate("micro.Machine.ExecuteBlock")
	r.layer["pmu.windows_per_s"] = sum.rate("pmu.PMU.Measure")
	r.layer["dataset.rows"] = rows
	r.layer["parallel.collect_speedup_x"] = float64(serial) / float64(par)
	return writeSpans(r, rs)
}

// replaySample runs one sample the way trace.Container.Run does, from
// the public calls of workload, micro and pmu, under spans when rec is
// non-nil.
func replaySample(rec *recorder, cfg trace.Config, j job) ([]trace.Record, error) {
	root := rec.begin("bench.sample")
	sp := rec.begin("workload.NewSample")
	prog, err := workload.NewSample(j.class, j.seed)
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	var opts []pmu.Option
	if !cfg.Multiplex {
		opts = append(opts, pmu.WithoutMultiplexing())
	}
	sp = rec.begin("pmu.New")
	unit, err := pmu.New(cfg.Events, opts...)
	rec.end(sp, 0)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("micro.NewMachine")
	m := micro.NewMachine(cfg.Machine, j.seed^0x9e3779b97f4a7c15)
	rec.end(sp, 0)

	sliceDur := cfg.SamplePeriod / float64(cfg.SlicesPerWindow)
	records := make([]trace.Record, 0, cfg.WindowsPerSample)
	for w := 0; w < cfg.WindowsPerSample; w++ {
		slices := make([]micro.Counts, cfg.SlicesPerWindow)
		for s := range slices {
			sp = rec.begin("workload.Program.Current")
			ph := prog.Current()
			rec.end(sp, 0)
			sp = rec.begin("micro.Machine.WindowInstructions")
			trueInstr := float64(m.WindowInstructions(sliceDur, ph.IPC))
			rec.end(sp, 0)
			simInstr := cfg.SimInstrPerSlice
			if float64(simInstr) > trueInstr {
				simInstr = int(trueInstr)
			}
			if simInstr > 0 {
				sp = rec.begin("micro.Machine.ExecuteBlock")
				raw, err := m.ExecuteBlock(ph.Block, simInstr)
				rec.end(sp, int64(simInstr))
				if err != nil {
					return nil, err
				}
				sp = rec.begin("micro.Counts.Scaled")
				slices[s] = raw.Scaled(trueInstr / float64(simInstr))
				rec.end(sp, 0)
			}
			sp = rec.begin("workload.Program.Advance")
			prog.Advance(sliceDur)
			rec.end(sp, 0)
		}
		sp = rec.begin("pmu.PMU.Measure")
		readings, err := unit.Measure(slices)
		rec.end(sp, 1)
		if err != nil {
			return nil, err
		}
		records = append(records, trace.Record{Window: w, Readings: readings})
	}
	rec.end(root, int64(len(records)))
	return records, nil
}

func sameRecords(a, b []trace.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValues(a[i].Values(), b[i].Values()) {
			return false
		}
	}
	return true
}

// sameValues compares bit patterns, so even a differently rounded
// reading counts as a difference.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
