package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// exposition renders a registry holding one verdict-latency histogram
// exactly as the daemon's /metrics does.
func exposition(t *testing.T, reg *obs.Registry) []promSample {
	t.Helper()
	var b strings.Builder
	if err := obs.WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProm(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestHistogramDeltaFromMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("ingest.verdict_latency_seconds", obs.TimeBuckets)
	reg.Counter("ingest.windows").Add(7)
	reg.Gauge("runtime.gc_cycles").Set(12)
	for _, v := range []float64{0.0002, 0.003, 0.003} {
		h.Observe(v)
	}
	before := exposition(t, reg)
	for _, v := range []float64{0.0002, 0.004, 0.02, 0.02, 40} {
		h.Observe(v)
	}
	after := exposition(t, reg)

	hb, err := histogram(before, "ingest_verdict_latency_seconds")
	if err != nil {
		t.Fatal(err)
	}
	ha, err := histogram(after, "ingest_verdict_latency_seconds")
	if err != nil {
		t.Fatal(err)
	}
	d, err := histogramDelta(hb, ha)
	if err != nil {
		t.Fatal(err)
	}
	if n := total(d); n != 5 {
		t.Errorf("delta holds %v observations, want 5", n)
	}
	// 0.0002 and 0.004 are within 10 ms; 0.02, 0.02 and 40 (the +Inf
	// bucket) are not.
	if f := fracWithin(d, 0.01); f != 0.4 {
		t.Errorf("fracWithin(10ms) = %v, want 0.4", f)
	}
	if v, ok := promValue(after, "runtime_gc_cycles"); !ok || v != 12 {
		t.Errorf("gauge = %v, %v", v, ok)
	}
	if v, ok := promValue(after, "ingest_windows_total"); !ok || v != 7 {
		t.Errorf("counter = %v, %v", v, ok)
	}
	// Swapped scrapes look like a restart and must not yield a delta.
	if _, err := histogramDelta(ha, hb); err == nil {
		t.Error("delta of a shrinking histogram succeeded")
	}
	if _, err := histogramDelta(hb, ha[1:]); err == nil {
		t.Error("delta across different bounds succeeded")
	}
	if _, err := histogram(after, "no_such_family"); err == nil {
		t.Error("missing family succeeded")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"metric_without_value", "m 12abc"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
