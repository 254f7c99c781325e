package quality

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
)

func feed(s *Scoreboard) {
	// actual 0 (benign): 8 TN (low scores), 2 FP (high scores);
	// actual 1 (malware): 6 TP (high scores), 4 FN (low scores).
	for i := 0; i < 8; i++ {
		s.Observe(0, 0, 0.05)
	}
	for i := 0; i < 2; i++ {
		s.Observe(0, 1, 0.95)
	}
	for i := 0; i < 6; i++ {
		s.Observe(1, 1, 0.95)
	}
	for i := 0; i < 4; i++ {
		s.Observe(1, 0, 0.05)
	}
}

func TestScoreboardMetrics(t *testing.T) {
	r := obs.NewRegistry()
	s := NewScoreboard(Config{Registry: r})
	feed(s)
	q := s.Snapshot()
	if q.Observed != 20 || q.WindowObserved != 20 {
		t.Fatalf("observed %d / window %d, want 20/20", q.Observed, q.WindowObserved)
	}
	if math.Abs(q.Accuracy-0.7) > 1e-12 {
		t.Errorf("accuracy = %v, want 0.7", q.Accuracy)
	}
	// Headline metrics are the malware (class 1) row.
	if math.Abs(q.Precision-0.75) > 1e-12 { // 6/8
		t.Errorf("precision = %v, want 0.75", q.Precision)
	}
	if math.Abs(q.Recall-0.6) > 1e-12 {
		t.Errorf("recall = %v, want 0.6", q.Recall)
	}
	if math.Abs(q.FPR-0.2) > 1e-12 { // 2/10 benign flagged
		t.Errorf("fpr = %v, want 0.2", q.FPR)
	}
	if q.Confusion[0][0] != 8 || q.Confusion[0][1] != 2 ||
		q.Confusion[1][0] != 4 || q.Confusion[1][1] != 6 {
		t.Errorf("confusion = %v", q.Confusion)
	}
	if len(q.PerClass) != 2 || q.PerClass[1].Class != "malware" || q.PerClass[1].Support != 10 {
		t.Errorf("per-class rows = %+v", q.PerClass)
	}
	// Histograms are keyed by ACTUAL class: benign mass sits low except
	// the 2 false positives; malware mass sits high except the 4 misses.
	if h := q.ScoreHistograms[0].Counts; h[0] != 8 || h[9] != 2 {
		t.Errorf("benign score histogram = %v", h)
	}
	if h := q.ScoreHistograms[1].Counts; h[0] != 4 || h[9] != 6 {
		t.Errorf("malware score histogram = %v", h)
	}
	// Calibration: low bin holds 12 windows at score 0.05 of which 4 are
	// actually malware → |0.05 - 4/12|; top bin 8 windows at 0.95, 6 malware.
	lo, hi := q.Calibration[0], q.Calibration[9]
	if lo.Count != 12 || math.Abs(lo.PositiveRate-4.0/12) > 1e-12 {
		t.Errorf("low calibration bin = %+v", lo)
	}
	if hi.Count != 8 || math.Abs(hi.MeanScore-0.95) > 1e-12 {
		t.Errorf("high calibration bin = %+v", hi)
	}
	wantECE := (math.Abs(0.05-4.0/12)*12 + math.Abs(0.95-0.75)*8) / 20
	if math.Abs(q.ECE-wantECE) > 1e-12 {
		t.Errorf("ECE = %v, want %v", q.ECE, wantECE)
	}
}

func TestScoreboardSlidingWindow(t *testing.T) {
	r := obs.NewRegistry()
	s := NewScoreboard(Config{Registry: r})
	feed(s)
	for i := 1; i < epochs; i++ {
		s.Advance() // epoch i+1 of epochs: window still holds everything
	}
	if q := s.Snapshot(); q.WindowObserved != 20 {
		t.Fatalf("window after %d rotations = %d, want 20", epochs-1, q.WindowObserved)
	}
	s.Advance() // original epoch evicted
	q := s.Snapshot()
	if q.WindowObserved != 0 || q.Observed != 20 {
		t.Fatalf("window %d / observed %d after eviction, want 0/20", q.WindowObserved, q.Observed)
	}
	if q.Accuracy != 0 || q.Rotations != epochs {
		t.Fatalf("empty-window accuracy %v rotations %d", q.Accuracy, q.Rotations)
	}
	// Advance exports gauges to the registry.
	if got := r.Gauge(WindowObservedMetric).Value(); got != 0 {
		t.Errorf("window gauge = %v", got)
	}
	if got := r.Counter(ObservationsMetric).Value(); got != 20 {
		t.Errorf("observations counter = %d, want 20", got)
	}
}

func TestScoreboardGaugesExported(t *testing.T) {
	r := obs.NewRegistry()
	s := NewScoreboard(Config{Registry: r})
	feed(s)
	s.Advance()
	if got := r.Gauge(AccuracyMetric).Value(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("accuracy gauge = %v, want 0.7", got)
	}
	if got := r.Gauge(F1Metric).Value(); got <= 0 {
		t.Errorf("f1 gauge = %v, want > 0", got)
	}
}

func TestScoreboardIgnoresBadLabels(t *testing.T) {
	s := NewScoreboard(Config{Registry: obs.NewRegistry()})
	s.Observe(-1, 0, 0.5)
	s.Observe(0, 5, 0.5)
	s.Observe(2, 0, 0.5)
	if q := s.Snapshot(); q.Observed != 0 {
		t.Fatalf("observed %d out-of-range labels", q.Observed)
	}
	// Scores outside [0,1] clamp into the edge bins rather than panicking.
	s.Observe(1, 1, 1.5)
	s.Observe(0, 0, -0.5)
	q := s.Snapshot()
	if q.ScoreHistograms[1].Counts[9] != 1 || q.ScoreHistograms[0].Counts[0] != 1 {
		t.Fatalf("clamped scores landed wrong: %v", q.ScoreHistograms)
	}
	var nils *Scoreboard
	nils.Observe(0, 0, 0.5) // nil-safe
}

// TestScoreboardDeterministicConcurrent pins the parallelism contract:
// the same observations arriving from many goroutines in any order
// produce the same snapshot as a serial feed, because every update is a
// commutative count.
func TestScoreboardDeterministicConcurrent(t *testing.T) {
	serial := NewScoreboard(Config{Registry: obs.NewRegistry()})
	for i := 0; i < 400; i++ {
		serial.Observe(i%2, (i/2)%2, float64(i%10)/10)
	}
	concurrent := NewScoreboard(Config{Registry: obs.NewRegistry()})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 400; i += 8 {
				concurrent.Observe(i%2, (i/2)%2, float64(i%10)/10)
			}
		}(w)
	}
	wg.Wait()
	a, b := serial.Snapshot(), concurrent.Snapshot()
	if a.Accuracy != b.Accuracy || a.F1 != b.F1 || a.ECE != b.ECE ||
		a.WindowObserved != b.WindowObserved {
		t.Fatalf("serial %+v != concurrent %+v", a, b)
	}
	for c := range a.Confusion {
		for p := range a.Confusion[c] {
			if a.Confusion[c][p] != b.Confusion[c][p] {
				t.Fatalf("confusion diverged: %v vs %v", a.Confusion, b.Confusion)
			}
		}
	}
}

func TestScoreboardMulticlass(t *testing.T) {
	s := NewScoreboard(Config{NumClasses: 3, Registry: obs.NewRegistry()})
	s.Observe(0, 0, 0.9)
	s.Observe(1, 1, 0.8)
	s.Observe(2, 1, 0.6)
	q := s.Snapshot()
	if len(q.Classes) != 3 || q.Classes[2] != "class 2" {
		t.Fatalf("classes = %v", q.Classes)
	}
	if q.F1 != q.MacroF1 {
		t.Fatalf("multiclass headline F1 %v != macro %v", q.F1, q.MacroF1)
	}
}
