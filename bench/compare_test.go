package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAgreeRule(t *testing.T) {
	for _, c := range []struct {
		a, b []float64
		bnd  float64
		rel  float64
		ok   bool
	}{
		{[]float64{100, 90, 110}, []float64{105, 95, 120}, 0.10, 0.05, true},
		{[]float64{100, 90, 110}, []float64{89, 85, 95}, 0.10, -0.11, false},
		{[]float64{100}, []float64{110}, 0.10, 0.10, false}, // the bound itself is outside
		{[]float64{-4, -4}, []float64{-5, -5}, 0.3, -0.25, true},
	} {
		rel, ok := agree(c.a, c.b, c.bnd)
		if ok != c.ok || rel < c.rel-1e-9 || rel > c.rel+1e-9 {
			t.Errorf("agree(%v, %v, %v) = %v, %v; want %v, %v", c.a, c.b, c.bnd, rel, ok, c.rel, c.ok)
		}
	}
}

func TestParseWall(t *testing.T) {
	got, err := parseWall("# wall: items_per_s=512.5 latency_p50_ms=1e+03 setup_s=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["items_per_s"] != 512.5 || got["latency_p50_ms"] != 1000 || got["setup_s"] != 0.25 {
		t.Errorf("parseWall = %v", got)
	}
	for _, bad := range []string{"# latency x: n=1", "# wall: items_per_s", "# wall: items_per_s=fast"} {
		if _, err := parseWall(bad); err == nil {
			t.Errorf("parseWall(%q) succeeded", bad)
		}
	}
}

func writeSet(t *testing.T, dir, name string, items []float64, failed int64) string {
	t.Helper()
	var set resultSet
	for i, v := range items {
		m := map[string]metricValue{"items_per_s": {v, "items/s"}}
		set.Runs = append(set.Runs, repeatRun{Workload: "collect", Seed: uint64(i),
			Result: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}})
	}
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"items_per_s","unit":"items/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := writeSet(t, dir, "a.json", []float64{100, 101, 99, 150, 100}, 0)
	b := writeSet(t, dir, "b.json", []float64{104, 96, 103, 102, 30}, 0)
	var out strings.Builder
	if err := compareFiles(&out, spec, a, b); err != nil {
		t.Errorf("medians 100 and 102 should agree within 10%%: %v\n%s", err, out.String())
	}
	slow := writeSet(t, dir, "slow.json", []float64{80, 85, 88, 90, 86}, 0)
	if err := compareFiles(&out, spec, a, slow); err == nil {
		t.Errorf("medians 100 and 86 agreed within 10%%:\n%s", out.String())
	}
	failing := writeSet(t, dir, "failing.json", []float64{100, 100, 100}, 1)
	if err := compareFiles(&out, spec, a, failing); err == nil {
		t.Errorf("a set with failed runs agreed:\n%s", out.String())
	}
}
