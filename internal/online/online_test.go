package online

import (
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMajorityVoterWindow(t *testing.T) {
	v := &MajorityVoter{Window: 4, Threshold: 0.5}
	// 1 malware vote out of 4: no alarm (1 < 2).
	if v.Observe(1) {
		t.Fatal("single vote raised alarm")
	}
	if v.Observe(0) || v.Observe(0) {
		t.Fatal("early alarm")
	}
	// Second malware vote: 2/4 >= 0.5 → alarm.
	if !v.Observe(1) {
		t.Fatal("2/4 malware did not alarm at threshold 0.5")
	}
	// Old votes slide out: after 4 benign votes, calm again.
	for i := 0; i < 4; i++ {
		v.Observe(0)
	}
	if v.Observe(0) {
		t.Fatal("alarm persisted after window flushed")
	}
}

func TestMajorityVoterReset(t *testing.T) {
	v := &MajorityVoter{Window: 2, Threshold: 0.5}
	v.Observe(1)
	v.Reset()
	if v.Observe(0) {
		t.Fatal("reset did not clear votes")
	}
}

func TestMajorityVoterDefaults(t *testing.T) {
	v := &MajorityVoter{}
	// Defaults: window 8, threshold 0.5 → 4 consecutive malware votes.
	alarmAt := -1
	for i := 0; i < 8; i++ {
		if v.Observe(1) && alarmAt == -1 {
			alarmAt = i
		}
	}
	if alarmAt != 3 {
		t.Fatalf("default voter alarmed at vote %d, want 3", alarmAt)
	}
}

// constClassifier always predicts the same label.
type constClassifier int

func (c constClassifier) Name() string                        { return "const" }
func (c constClassifier) Train([][]float64, []int, int) error { return nil }
func (c constClassifier) Predict([]float64) int               { return int(c) }

var _ ml.Classifier = constClassifier(0)

func collectTrace(t *testing.T, class workload.Class, windows int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.WindowsPerSample = windows
	cfg.SimInstrPerSlice = 300
	tr, err := trace.CollectSample(cfg, class, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMonitorDetectsSustainedMalware(t *testing.T) {
	tr := collectTrace(t, workload.Worm, 12)
	res, err := Monitor(constClassifier(1), tr,
		WithSmoother(func() Smoother { return &MajorityVoter{Window: 4, Threshold: 0.5} }))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("sustained malware verdicts did not alarm")
	}
	// 2 of 4 votes at threshold 0.5 → window index 1, latency 20 ms at
	// the default 10 ms sampling period.
	if res.Window != 1 {
		t.Fatalf("alarm at window %d, want 1", res.Window)
	}
	if res.LatencySeconds != 0.02 {
		t.Fatalf("latency %v, want 0.02", res.LatencySeconds)
	}
}

func TestMonitorStaysQuietOnBenign(t *testing.T) {
	tr := collectTrace(t, workload.Benign, 12)
	res, err := Monitor(constClassifier(0), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatal("benign verdicts raised alarm")
	}
	if res.Window != -1 || res.LatencySeconds != 0 {
		t.Fatalf("quiet result malformed: %+v", res)
	}
}

func TestMonitorErrors(t *testing.T) {
	tr := collectTrace(t, workload.Benign, 2)
	if _, err := Monitor(nil, tr); err == nil {
		t.Fatal("accepted nil classifier")
	}
	if _, err := Monitor(constClassifier(0), tr, WithSmoother(nil)); err == nil {
		t.Fatal("accepted nil smoother factory")
	}
	if _, err := Monitor(constClassifier(0), tr,
		WithSmoother(func() Smoother { return nil })); err == nil {
		t.Fatal("accepted nil smoother")
	}
	if _, err := Monitor(constClassifier(0), nil); err == nil {
		t.Fatal("accepted nil trace")
	}
	if _, err := Monitor(constClassifier(0), tr, WithSamplePeriod(0)); err == nil {
		t.Fatal("accepted zero period")
	}
}

func TestMonitorAllMatchesSerialMonitor(t *testing.T) {
	classes := []workload.Class{
		workload.Benign, workload.Worm, workload.Trojan,
		workload.Virus, workload.Rootkit, workload.Backdoor,
	}
	traces := make([]*trace.Trace, len(classes))
	for i, c := range classes {
		traces[i] = collectTrace(t, c, 12)
	}
	smoother := func() Smoother { return &MajorityVoter{Window: 4, Threshold: 0.5} }
	// flaky predicts from the window values, so verdicts differ per trace.
	flaky := thresholdClassifier{}
	want := make([]*Result, len(traces))
	for i, tr := range traces {
		var err error
		want[i], err = Monitor(flaky, tr, WithSmoother(smoother))
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := MonitorAll(flaky, traces,
			WithSmoother(smoother), WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if *got[i] != *want[i] {
				t.Fatalf("workers=%d: trace %d result %+v, want %+v",
					workers, i, *got[i], *want[i])
			}
		}
	}
}

// thresholdClassifier flags windows whose first feature exceeds the mean
// of the row — a cheap deterministic stand-in for a trained model that
// produces different verdicts on different traces.
type thresholdClassifier struct{}

func (thresholdClassifier) Name() string                        { return "threshold" }
func (thresholdClassifier) Train([][]float64, []int, int) error { return nil }
func (thresholdClassifier) Predict(row []float64) int {
	if len(row) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if row[0] > sum/float64(len(row)) {
		return 1
	}
	return 0
}

func TestSmootherRobustToFlakyVotes(t *testing.T) {
	// Alternating verdicts at threshold 0.75 never alarm: smoothing
	// suppresses one-off misclassifications.
	v := &MajorityVoter{Window: 8, Threshold: 0.75}
	for i := 0; i < 50; i++ {
		if v.Observe(i % 2) {
			t.Fatal("flaky verdict stream raised alarm at high threshold")
		}
	}
}

// Property: whenever the majority voter alarms, at least
// ceil(threshold*window) of the most recent observations were malware.
func TestVoterAlarmImpliesVotesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		window := src.Intn(10) + 2
		v := &MajorityVoter{Window: window, Threshold: 0.5}
		var history []int
		for i := 0; i < 200; i++ {
			pred := 0
			if src.Bool(0.4) {
				pred = 1
			}
			history = append(history, pred)
			alarm := v.Observe(pred)
			if alarm {
				// Count malware votes in the filled window.
				lo := len(history) - window
				if lo < 0 {
					lo = 0
				}
				sum := 0
				for _, p := range history[lo:] {
					sum += p
				}
				if float64(sum) < 0.5*float64(window) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
