// Package quality is the model-health half of the observability stack:
// where internal/obs and internal/telemetry answer "is the process
// healthy?", this package answers "is the detector still right, and is
// the input still in-distribution?".
//
// It has two instruments:
//
//   - Scoreboard: a streaming detection scoreboard over labeled replay —
//     sliding-window confusion matrices, per-class precision/recall/F1
//     and false-positive rate, score-distribution histograms, and a
//     calibration (reliability) summary, exported as obs gauges and the
//     telemetry server's /quality endpoint.
//
//   - DriftDetector: per-counter baseline sketches (mean/std plus
//     fixed-bin histograms) captured at train time, compared online
//     against live HPC windows via the Population Stability Index and a
//     Kolmogorov–Smirnov statistic, exported as obs gauges, drift
//     events on the bus, and the /drift endpoint.
//
// Both accumulate into an epoch ring: Observe adds commutative counts to
// the current epoch and Advance rotates the ring, so the sliding window
// is the aggregate of the last epochs rotations. Because every update is
// a commutative sum, concurrent observers produce bit-identical snapshots
// at any worker count and completion order — the same determinism
// contract the rest of the pipeline keeps.
//
// The need for this layer is the central lesson of the adversarial HMD
// literature: Kuruvila et al. show hardware malware detector accuracy
// collapses silently when the HPC feature distribution shifts from the
// one trained on, and anomaly-detection formulations (Garcia-Serrano)
// frame detection itself as monitoring deviation from a learned
// baseline. A production detector therefore has to watch its own inputs
// and outputs, not just its process.
package quality

import (
	"fmt"
	"sync"

	"repro/internal/ml/eval"
	"repro/internal/obs"
)

// Registry gauge names exported by the Scoreboard (updated on Advance).
const (
	AccuracyMetric       = "quality.accuracy"
	PrecisionMetric      = "quality.precision"
	RecallMetric         = "quality.recall"
	F1Metric             = "quality.f1"
	FPRMetric            = "quality.fpr"
	ECEMetric            = "quality.ece"
	WindowObservedMetric = "quality.window_observed"
	// ObservationsMetric counts every labeled prediction ever scored.
	ObservationsMetric = "quality.observations"
)

// Sliding-window and histogram shape shared by both instruments.
const (
	// epochs is the sliding-window length in Advance rotations: the
	// scoreboard and the drift detector report over the last epochs
	// epochs, including the one currently filling.
	epochs = 8
	// scoreBins is the number of equal-width bins over [0,1] for the
	// score histograms and calibration summary.
	scoreBins = 10
)

// Config configures a Scoreboard.
type Config struct {
	// NumClasses is the label arity (default 2, the binary detector).
	NumClasses int
	// Registry receives the exported gauges (default obs.DefaultRegistry).
	Registry *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.NumClasses < 2 {
		c.NumClasses = 2
	}
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry
	}
}

// classNames maps labels to display names: ["benign","malware"] for the
// binary detector, "class <i>" otherwise.
func classNames(k int) []string {
	if k == 2 {
		return []string{"benign", "malware"}
	}
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("class %d", i)
	}
	return names
}

// epoch is one rotation's worth of commutative counts.
type epoch struct {
	conf *eval.Confusion
	// scoreHist[class][bin] counts scores of windows whose ACTUAL label
	// is class — the two distributions whose separation is the detector's
	// margin, and whose collapse is the first sign of decay.
	scoreHist [][]int64
	// Calibration bins over the reported score: count, score mass, and
	// positives (actual == positive class for binary boards; correct
	// predictions otherwise).
	calN     []int64
	calScore []float64
	calPos   []int64
	n        int64
}

func newEpoch(classes, bins int) *epoch {
	e := &epoch{
		conf:     eval.NewConfusion(classes),
		calN:     make([]int64, bins),
		calScore: make([]float64, bins),
		calPos:   make([]int64, bins),
	}
	for i := 0; i < classes; i++ {
		e.scoreHist = append(e.scoreHist, make([]int64, bins))
	}
	return e
}

func (e *epoch) reset() {
	for _, row := range e.conf.Counts {
		for i := range row {
			row[i] = 0
		}
	}
	for _, h := range e.scoreHist {
		for i := range h {
			h[i] = 0
		}
	}
	for i := range e.calN {
		e.calN[i], e.calScore[i], e.calPos[i] = 0, 0, 0
	}
	e.n = 0
}

// Scoreboard is the streaming detection scoreboard. All methods are safe
// for concurrent use.
type Scoreboard struct {
	mu        sync.Mutex
	cfg       Config
	names     []string
	epochs    []*epoch
	cur       int
	rotations int64
	observed  int64

	mObserved                                *obs.Counter
	gAcc, gPrec, gRec, gF1, gFPR, gECE, gWin *obs.Gauge
}

// NewScoreboard builds a scoreboard and registers its gauges.
func NewScoreboard(cfg Config) *Scoreboard {
	cfg.fillDefaults()
	s := &Scoreboard{cfg: cfg, names: classNames(cfg.NumClasses)}
	for i := 0; i < epochs; i++ {
		s.epochs = append(s.epochs, newEpoch(cfg.NumClasses, scoreBins))
	}
	r := cfg.Registry
	s.mObserved = r.Counter(ObservationsMetric)
	s.gAcc = r.Gauge(AccuracyMetric)
	s.gPrec = r.Gauge(PrecisionMetric)
	s.gRec = r.Gauge(RecallMetric)
	s.gF1 = r.Gauge(F1Metric)
	s.gFPR = r.Gauge(FPRMetric)
	s.gECE = r.Gauge(ECEMetric)
	s.gWin = r.Gauge(WindowObservedMetric)
	return s
}

// scoreBin maps a score in [0,1] onto a histogram bin, clamping strays.
func (s *Scoreboard) scoreBin(score float64) int {
	bin := int(score * float64(scoreBins))
	if bin < 0 {
		bin = 0
	}
	if bin >= scoreBins {
		bin = scoreBins - 1
	}
	return bin
}

// Observe scores one labeled prediction. score is the model's reported
// probability for the positive (malware) class on binary boards, or its
// confidence in the predicted class otherwise; callers without
// probabilities pass the 0/1 verdict, which degrades calibration to a
// two-spike reliability curve but keeps the confusion metrics exact.
// Labels outside [0, NumClasses) are ignored.
func (s *Scoreboard) Observe(actual, predicted int, score float64) {
	if s == nil || actual < 0 || actual >= s.cfg.NumClasses ||
		predicted < 0 || predicted >= s.cfg.NumClasses {
		return
	}
	pos := actual == predicted
	if s.cfg.NumClasses == 2 {
		pos = actual == 1
	}
	bin := s.scoreBin(score)
	s.mu.Lock()
	e := s.epochs[s.cur]
	e.conf.Observe(actual, predicted)
	e.scoreHist[actual][bin]++
	e.calN[bin]++
	e.calScore[bin] += score
	if pos {
		e.calPos[bin]++
	}
	e.n++
	s.observed++
	s.mu.Unlock()
	s.mObserved.Inc()
}

// Advance rotates the epoch ring, evicting the oldest epoch, and
// refreshes the exported gauges from the new sliding window. The ingest
// service calls it every 4096 windows of a tenant; rotation is the only
// form of eviction, so within-epoch observation order never matters.
func (s *Scoreboard) Advance() {
	s.mu.Lock()
	s.cur = (s.cur + 1) % len(s.epochs)
	s.epochs[s.cur].reset()
	s.rotations++
	snap := s.snapshotLocked()
	s.mu.Unlock()
	s.export(snap)
}

func (s *Scoreboard) export(q QualitySnapshot) {
	s.gAcc.Set(q.Accuracy)
	s.gPrec.Set(q.Precision)
	s.gRec.Set(q.Recall)
	s.gF1.Set(q.F1)
	s.gFPR.Set(q.FPR)
	s.gECE.Set(q.ECE)
	s.gWin.Set(float64(q.WindowObserved))
}

// ClassMetrics is one class's row of the scoreboard.
type ClassMetrics struct {
	Class     string  `json:"class"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	FPR       float64 `json:"fpr"`
	Support   int     `json:"support"`
}

// ScoreHistogram is the score distribution of windows of one actual class.
type ScoreHistogram struct {
	Class  string  `json:"class"`
	Counts []int64 `json:"counts"`
}

// CalibrationBin is one reliability-diagram bucket: over windows whose
// reported score fell in [Lo,Hi), the mean score the model claimed versus
// the rate at which the positive outcome actually held.
type CalibrationBin struct {
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	Count        int64   `json:"count"`
	MeanScore    float64 `json:"mean_score"`
	PositiveRate float64 `json:"positive_rate"`
}

// QualitySnapshot is the frozen scoreboard state over the sliding window,
// served as JSON on /quality. All fields derive from commutative counts,
// so snapshots are deterministic at any observer parallelism.
type QualitySnapshot struct {
	// Observed counts every labeled prediction ever; WindowObserved only
	// those inside the current sliding window.
	Observed       int64 `json:"observed"`
	WindowObserved int64 `json:"window_observed"`
	Epochs         int   `json:"epochs"`
	Rotations      int64 `json:"rotations"`

	Classes   []string       `json:"classes"`
	Confusion [][]int        `json:"confusion"` // Confusion[actual][predicted]
	PerClass  []ClassMetrics `json:"per_class"`
	Accuracy  float64        `json:"accuracy"`
	MacroF1   float64        `json:"macro_f1"`

	// Headline binary metrics of the positive (last-named, malware)
	// class; for multiclass boards these are macro averages.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	FPR       float64 `json:"fpr"`

	ScoreBins       int              `json:"score_bins"`
	ScoreHistograms []ScoreHistogram `json:"score_histograms"`
	Calibration     []CalibrationBin `json:"calibration"`
	// ECE is the expected calibration error: the support-weighted mean
	// |claimed score − observed positive rate| across bins.
	ECE float64 `json:"ece"`
}

// Snapshot freezes the sliding-window scoreboard.
func (s *Scoreboard) Snapshot() QualitySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Scoreboard) snapshotLocked() QualitySnapshot {
	k, bins := s.cfg.NumClasses, scoreBins
	conf := eval.NewConfusion(k)
	hist := make([][]int64, k)
	for i := range hist {
		hist[i] = make([]int64, bins)
	}
	calN := make([]int64, bins)
	calScore := make([]float64, bins)
	calPos := make([]int64, bins)
	var windowN int64
	for _, e := range s.epochs {
		conf.Merge(e.conf)
		for c := 0; c < k; c++ {
			for b := 0; b < bins; b++ {
				hist[c][b] += e.scoreHist[c][b]
			}
		}
		for b := 0; b < bins; b++ {
			calN[b] += e.calN[b]
			calScore[b] += e.calScore[b]
			calPos[b] += e.calPos[b]
		}
		windowN += e.n
	}

	q := QualitySnapshot{
		Observed:       s.observed,
		WindowObserved: windowN,
		Epochs:         len(s.epochs),
		Rotations:      s.rotations,
		Classes:        append([]string{}, s.names...),
		Accuracy:       conf.Accuracy(),
		MacroF1:        conf.MacroF1(),
		ScoreBins:      bins,
	}
	q.Confusion = make([][]int, k)
	for a := 0; a < k; a++ {
		q.Confusion[a] = append([]int{}, conf.Counts[a]...)
	}
	for c := 0; c < k; c++ {
		support := 0
		for _, v := range conf.Counts[c] {
			support += v
		}
		q.PerClass = append(q.PerClass, ClassMetrics{
			Class:     s.names[c],
			Precision: conf.Precision(c),
			Recall:    conf.Recall(c),
			F1:        conf.F1(c),
			FPR:       conf.FalsePositiveRate(c),
			Support:   support,
		})
		q.ScoreHistograms = append(q.ScoreHistograms, ScoreHistogram{
			Class:  s.names[c],
			Counts: append([]int64{}, hist[c]...),
		})
	}
	if k == 2 {
		q.Precision = conf.Precision(1)
		q.Recall = conf.Recall(1)
		q.F1 = conf.F1(1)
		q.FPR = conf.FalsePositiveRate(1)
	} else {
		var p, r, fpr float64
		for c := 0; c < k; c++ {
			p += conf.Precision(c)
			r += conf.Recall(c)
			fpr += conf.FalsePositiveRate(c)
		}
		q.Precision, q.Recall, q.FPR = p/float64(k), r/float64(k), fpr/float64(k)
		q.F1 = q.MacroF1
	}

	width := 1 / float64(bins)
	var eceSum float64
	for b := 0; b < bins; b++ {
		cb := CalibrationBin{Lo: float64(b) * width, Hi: float64(b+1) * width, Count: calN[b]}
		if calN[b] > 0 {
			cb.MeanScore = calScore[b] / float64(calN[b])
			cb.PositiveRate = float64(calPos[b]) / float64(calN[b])
			diff := cb.MeanScore - cb.PositiveRate
			if diff < 0 {
				diff = -diff
			}
			eceSum += diff * float64(calN[b])
		}
		q.Calibration = append(q.Calibration, cb)
	}
	if windowN > 0 {
		q.ECE = eceSum / float64(windowN)
	}
	return q
}
