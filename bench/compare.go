package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// repeatRun is one child run of -repeat.
type repeatRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
	// Wall holds the run's "# wall:" header values, by metric name.
	Wall map[string]float64 `json:"wall,omitempty"`
	// Samples are the run's "# latency" and "# steal" header lines: how
	// many samples each reported percentile rests on, and how much CPU
	// time the host withheld.
	Samples []string `json:"samples,omitempty"`
}

// parseWall reads the name=value pairs of a "# wall:" header line.
func parseWall(line string) (map[string]float64, error) {
	rest, ok := strings.CutPrefix(line, "# wall:")
	if !ok {
		return nil, fmt.Errorf("not a wall line: %q", line)
	}
	out := map[string]float64{}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		x, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("malformed wall value %q", f)
		}
		out[k] = x
	}
	return out, nil
}

// resultSet is what -repeat writes and -compare reads.
type resultSet struct {
	Provenance []string    `json:"provenance"`
	Runs       []repeatRun `json:"runs"`
}

// repeatRuns runs the workload (or all of them) n times, each in a fresh
// process with seed+i, reversing the workload order on every other round
// so no workload always runs on a machine its predecessor just warmed.
func repeatRuns(workload string, seed uint64, seconds, trace, n int, bin, out string) error {
	var names []string
	for _, w := range workloads {
		if workload == "all" || workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q (have %s, all)", workload, workloadNames())
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Provenance: provenance()}
	for i := 0; i < n; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "-bin", bin)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v)", w, s, runErr)
			}
			run := repeatRun{Workload: w, Seed: s, Result: res}
			for _, l := range lines {
				switch {
				case strings.HasPrefix(l, "# latency "), strings.HasPrefix(l, "# steal: "):
					run.Samples = append(run.Samples, strings.TrimPrefix(l, "# "))
				case strings.HasPrefix(l, "# wall:"):
					if run.Wall, err = parseWall(l); err != nil {
						return fmt.Errorf("%s seed %d: %w", w, s, err)
					}
				}
			}
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(os.Stderr, "repeat: %s seed %d done (correct %v)\n", w, s, res.Correct)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	summarize(os.Stdout, set)
	return nil
}

// samples collects each workload's values of each metric across runs,
// the "# wall:" values as wall.<name>.
func (s resultSet) samples() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		for name, v := range r.Wall {
			out[r.Workload]["wall."+name] = append(out[r.Workload]["wall."+name], v)
		}
	}
	return out
}

// summarize prints, per workload and metric, the sample count, median,
// quartiles and spread (interquartile range over median). The wall.*
// rows have no bound; -compare ignores them.
func summarize(w io.Writer, s resultSet) {
	for _, line := range s.Provenance {
		fmt.Fprintln(w, "# "+line)
	}
	fmt.Fprintf(w, "%-12s %-34s %3s %14s %14s %14s %7s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	samples := s.samples()
	for _, wl := range sortedKeys(samples) {
		metrics := samples[wl]
		for _, name := range sortedKeys(metrics) {
			v := metrics[name]
			q1, q2, q3, ok := quartiles(v)
			if !ok {
				q1, q2, q3 = v[0], v[0], v[0]
			}
			fmt.Fprintf(w, "%-12s %-34s %3d %14.6g %14.6g %14.6g %6.1f%%\n", wl, name, len(v), q2, q1, q3, 100*spread(v))
		}
	}
	for _, r := range s.Runs {
		for _, l := range r.Samples {
			fmt.Fprintf(w, "%-12s seed %-4d %s\n", r.Workload, r.Seed, l)
		}
	}
	failed := 0
	for _, r := range s.Runs {
		if !r.Result.Correct || r.Result.Failed > 0 {
			failed++
		}
	}
	fmt.Fprintf(w, "runs: %d, with failures: %d\n", len(s.Runs), failed)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// agree is the agreement rule: two sets of one metric agree when their
// medians differ by less than the metric's bound, as a share of the
// first set's median. It returns that relative difference.
func agree(a, b []float64, bnd float64) (rel float64, ok bool) {
	ma, mb := median(a), median(b)
	rel = (mb - ma) / math.Abs(ma)
	return rel, math.Abs(rel) < bnd
}

// compareFiles prints, metric by metric, whether two -repeat result sets
// agree within the BENCHMARK.json bounds, and fails when any metric
// disagrees or any run failed.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) error {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(benchPath, &spec); err != nil {
		return err
	}
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	sa, sb := a.samples(), b.samples()
	bad := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "bound", "verdict")
	for _, wl := range sortedKeys(sa) {
		if sb[wl] == nil {
			fmt.Fprintf(w, "%-12s only in %s\n", wl, pathA)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := sa[wl][m.Name], sb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing\n", wl, m.Name)
				bad++
				continue
			}
			rel, ok := agree(va, vb, m.Bound)
			verdict := "agree"
			if !ok {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s (n=%d/%d, %s is better)\n",
				wl, m.Name, median(va), median(vb), 100*rel, 100*m.Bound, verdict, len(va), len(vb), m.Better)
		}
	}
	for _, set := range []struct {
		name string
		rs   resultSet
	}{{pathA, a}, {pathB, b}} {
		var attempted, failed int64
		for _, r := range set.rs.Runs {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
			if !r.Result.Correct {
				bad++
			}
		}
		fmt.Fprintf(w, "%s: failed %d of %d operations and checks\n", set.name, failed, attempted)
		if failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("the two sets disagree (%d findings)", bad)
	}
	fmt.Fprintln(w, "the two sets agree within the benchmark's bounds")
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
