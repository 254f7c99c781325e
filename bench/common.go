package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"time"
)

// digestsJSON pins the SHA-256 of the collect CSV and of the rendered
// study reports at seeds 1 and 2: {"collect": {"1": "<hex>", ...}, ...}.
//
//go:embed digests.json
var digestsJSON []byte

// pinned checks an output digest against digests.json when the run's
// seed is pinned there, and logs it either way.
func pinned(r *run, key, got string) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		r.check(false, "digests.json: %v", err)
		return
	}
	want, ok := pins[key][strconv.FormatUint(r.seed, 10)]
	if !ok {
		r.logf("output digest %s (seed %d not pinned)", got, r.seed)
		return
	}
	r.check(got == want, "%s: output digest %s, pinned %s", key, got, want)
}

// timeSetup runs one set-up repetition in this process and records its
// CPU and wall-clock time.
func (r *run) timeSetup(f func() error) error {
	cpu, t := selfCPU(), time.Now()
	if err := f(); err != nil {
		return err
	}
	r.setup = append(r.setup, setupCost{cpu: selfCPU() - cpu, wall: time.Since(t)})
	return nil
}

// phaseCost is the process-level cost of an in-process timed phase.
type phaseCost struct {
	cpu       time.Duration
	gc, alloc float64
}

func startPhase() phaseCost {
	gc, alloc := gcCounters()
	return phaseCost{cpu: selfCPU(), gc: gc, alloc: alloc}
}

// finish charges the phase's CPU time, GC cycles and allocation to the
// items it completed, and reads the process's peak RSS.
func (p phaseCost) finish(r *run, items float64) {
	gc, alloc := gcCounters()
	if items > 0 {
		r.cpuPerItem = time.Duration(float64(selfCPU()-p.cpu) / items)
		r.layer["proc.gc_cycles_per_mitem"] = (gc - p.gc) / items * 1e6
		r.layer["proc.alloc_bytes_per_item"] = (alloc - p.alloc) / items
	}
	if rss, err := procPeakMiB("self"); err == nil {
		r.rssMiB = rss
	}
}

func countFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.ok {
			n++
		}
	}
	return n
}

// lateTailMS is how late the generator sent its requests, at the same
// tail percentile the latency metrics use.
func lateTailMS(outs []outcome) float64 {
	var ms []float64
	for _, o := range outs {
		ms = append(ms, float64(o.late())/float64(time.Millisecond))
	}
	_, v := tail(ms)
	return v
}

// minCoverage is the least share of a traced replay its layer spans must
// explain; below it the replay mostly measures the harness, and the
// stage costs no longer add up to the whole.
const minCoverage = 0.85

// spanLayers fills the metrics every traced run derives from its spans.
// plain and traced are the wall times of the same replay without and
// with spans.
func spanLayers(r *run, sum spanSummary, plain, traced time.Duration) {
	r.check(sum.coverage() >= minCoverage, "%s: spans cover %.3f of the traced replay, want at least %g", r.workload, sum.coverage(), minCoverage)
	r.layer["spans.coverage"] = sum.coverage()
	r.layer["spans.count"] = float64(sum.count)
	r.layer["spans.overhead_frac"] = float64(traced)/float64(plain) - 1
	for _, m := range modules {
		r.layer[m+".self_frac"] = sum.selfFrac(m)
	}
	r.logf("spans: %d, coverage %.3f, overhead %.3f", sum.count, sum.coverage(), r.layer["spans.overhead_frac"])
}

// writeSpans writes the run's spans as a Chrome trace-event file next to
// the harness binary.
func writeSpans(r *run, sets ...*recorders) error {
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))
	if err := writeChrome(path, sets...); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.logf("spans written to %s", path)
	return nil
}
