package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
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

// TestScoreboardDeterministicConcurrent pins the parallelism contract
// for counts: the same observations arriving from many goroutines in any
// order give the same confusion matrix, accuracy, F1 and window total as
// a serial feed. Its ECE matches as well only because each calibration
// bin here sees one repeated score, whose sum is the same in any order;
// calibration sums of different scores are float adds whose bits depend
// on arrival order.
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

// TestScoreboardChunkMatchesReference feeds one stream through the
// reference per-window Observe and through ObserveChunk in uneven
// chunks, rotating both at the same windows, on binary and three-class
// boards. Every count, every calibration-sum bit, the observation
// counter, the exported gauges and the snapshot must match. The stream
// carries unlabeled and out-of-range labels and predictions, and scores
// NaN, ±Inf, -0, every bin edge with its neighbours, and strays outside
// [0, 1].
func TestScoreboardChunkMatchesReference(t *testing.T) {
	var specials []float64
	for b := 0; b <= scoreBins; b++ {
		e := float64(b) / scoreBins
		specials = append(specials, math.Nextafter(e, -1), e, math.Nextafter(e, 2))
	}
	specials = append(specials, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		0.3, 0.7, 1.5, -0.5, math.MaxFloat64, -math.MaxFloat64)
	for _, k := range []int{2, 3} {
		for seed := int64(1); seed <= 20; seed++ {
			src := rand.New(rand.NewSource(seed))
			n := 600 + src.Intn(600)
			actual, predicted := make([]int, n), make([]int, n)
			scores := make([]float64, n)
			for i := range actual {
				actual[i], predicted[i] = src.Intn(k), src.Intn(k)
				scores[i] = src.Float64()
				switch src.Intn(10) {
				case 0:
					actual[i] = -1 // unlabeled
				case 1:
					actual[i] = []int{-3, k, k + 4}[src.Intn(3)]
				case 2:
					predicted[i] = []int{-1, k}[src.Intn(2)]
				case 3, 4:
					scores[i] = specials[src.Intn(len(specials))]
				}
			}
			// Rotate often enough that the window both fills and evicts.
			rotateAt := map[int]bool{}
			for i := 40 + src.Intn(40); i < n; i += 30 + src.Intn(90) {
				rotateAt[i] = true
			}
			chunks := []int{1, 7, 300, 3, 64, 2, 129, 512}

			wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
			want := NewScoreboard(Config{NumClasses: k, Registry: wantReg})
			got := NewScoreboard(Config{NumClasses: k, Registry: gotReg})
			compare := func(at int) {
				t.Helper()
				for e := range want.epochs {
					we, ge := want.epochs[e], got.epochs[e]
					if fmt.Sprint(we.conf.Counts, we.scoreHist, we.calN, we.calPos, we.n) !=
						fmt.Sprint(ge.conf.Counts, ge.scoreHist, ge.calN, ge.calPos, ge.n) {
						t.Fatalf("k=%d seed %d window %d epoch %d: chunked counts differ from per-window", k, seed, at, e)
					}
					for b := range we.calScore {
						if math.Float64bits(we.calScore[b]) != math.Float64bits(ge.calScore[b]) {
							t.Fatalf("k=%d seed %d window %d epoch %d bin %d: calScore %v chunked, %v per-window",
								k, seed, at, e, b, ge.calScore[b], we.calScore[b])
						}
					}
				}
				ws, gs := want.Snapshot(), got.Snapshot()
				wj, werr := json.Marshal(ws)
				gj, gerr := json.Marshal(gs)
				if (werr == nil) != (gerr == nil) || string(wj) != string(gj) ||
					fmt.Sprintf("%+v", ws) != fmt.Sprintf("%+v", gs) {
					t.Fatalf("k=%d seed %d window %d: snapshots differ:\n%+v\n%+v", k, seed, at, ws, gs)
				}
				if a, b := fmt.Sprint(wantReg.Snapshot()), fmt.Sprint(gotReg.Snapshot()); a != b {
					t.Fatalf("k=%d seed %d window %d: registries differ:\n%s\n%s", k, seed, at, a, b)
				}
			}
			start, c := 0, 0
			for i := range actual {
				refObserve(want, actual[i], predicted[i], scores[i])
				if rotateAt[i] || i-start+1 == chunks[c%len(chunks)] || i == n-1 {
					got.ObserveChunk(actual[start:i+1], predicted[start:i+1], scores[start:i+1])
					start, c = i+1, c+1
					compare(i)
				}
				if rotateAt[i] {
					want.Advance()
					got.Advance()
					compare(i)
				}
			}
		}
	}
	// Empty and nil inputs record nothing.
	s := NewScoreboard(Config{Registry: obs.NewRegistry()})
	s.ObserveChunk(nil, nil, nil)
	s.ObserveChunk([]int{-1, 5}, []int{0, 0}, []float64{0.5, 0.5})
	var nils *Scoreboard
	nils.ObserveChunk([]int{0}, []int{0}, []float64{0.5})
	if q := s.Snapshot(); q.Observed != 0 || q.WindowObserved != 0 {
		t.Fatalf("observed %d windows from empty and unlabeled chunks", q.Observed)
	}
}

// scoreStream is a random labeled stream for a k-class board: in-range
// labels and predictions, and scores that are mostly uniform but include
// bin edges, NaN, ±Inf and out-of-range values.
func scoreStream(src *rand.Rand, k, n int) (actual, predicted []int, scores []float64) {
	specials := []float64{0, 0.1, 0.5, 1, math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5}
	actual, predicted, scores = make([]int, n), make([]int, n), make([]float64, n)
	for i := range actual {
		actual[i], predicted[i], scores[i] = src.Intn(k), src.Intn(k), src.Float64()
		if src.Intn(20) == 0 {
			scores[i] = specials[src.Intn(len(specials))]
		}
	}
	return actual, predicted, scores
}

// TestScoreboardGaugesMatchSnapshot: after every Advance the seven
// exported gauges hold exactly the bits of the matching Snapshot fields,
// on binary and multiclass boards, while the window fills and evicts.
func TestScoreboardGaugesMatchSnapshot(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 10; seed++ {
			src := rand.New(rand.NewSource(seed))
			r := obs.NewRegistry()
			s := NewScoreboard(Config{NumClasses: k, Registry: r})
			for rot := 0; rot < 3*epochs; rot++ {
				// Some epochs stay empty, so whole classes and bins come and go.
				s.ObserveChunk(scoreStream(src, k, src.Intn(3)*src.Intn(200)))
				s.Advance()
				q := s.Snapshot()
				for _, g := range []struct {
					metric string
					want   float64
				}{
					{AccuracyMetric, q.Accuracy},
					{PrecisionMetric, q.Precision},
					{RecallMetric, q.Recall},
					{F1Metric, q.F1},
					{FPRMetric, q.FPR},
					{ECEMetric, q.ECE},
					{WindowObservedMetric, float64(q.WindowObserved)},
				} {
					if got := r.Gauge(g.metric).Value(); math.Float64bits(got) != math.Float64bits(g.want) {
						t.Fatalf("k=%d seed %d rotation %d: %s gauge %v, snapshot %v", k, seed, rot, g.metric, got, g.want)
					}
				}
			}
		}
	}
}

// TestScoreboardAdvanceZeroAlloc: a rotation merges the window into
// scratch the scoreboard owns and builds no snapshot, so once the board
// is warm it allocates nothing.
func TestScoreboardAdvanceZeroAlloc(t *testing.T) {
	for _, k := range []int{2, 4} {
		s := NewScoreboard(Config{NumClasses: k, Registry: obs.NewRegistry()})
		actual, predicted, scores := scoreStream(rand.New(rand.NewSource(int64(k))), k, 256)
		s.ObserveChunk(actual, predicted, scores)
		s.Advance()
		allocs := testing.AllocsPerRun(100, func() {
			s.ObserveChunk(actual, predicted, scores)
			s.Advance()
		})
		if allocs != 0 {
			t.Fatalf("k=%d: Advance allocates %.1f times per rotation", k, allocs)
		}
	}
}
