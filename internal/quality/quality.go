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
// Both accumulate into an epoch ring: Observe adds to the current epoch
// and Advance rotates the ring, so the sliding window is the aggregate
// of the last epochs rotations. Counts are order-free: confusion
// matrices, histogram bins and window totals come out the same at any
// worker count and completion order. The real-valued sums are not: the
// scoreboard's calibration score mass and the drift detector's sums and
// sums of squares are float adds, whose bits depend on their order.
// Snapshots are therefore bit-identical when one goroutine writes each
// instrument in arrival order, which is how the ingest service drives
// them (one shard owns each tenant's scoreboard and drift detector) —
// the same determinism contract the rest of the pipeline keeps.
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

// epoch is one rotation's worth of counts and calibration score sums.
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
	win       *epoch // the sliding window, merged into scratch by mergeLocked
	cur       int
	rotations int64
	observed  int64

	mObserved                                *obs.Counter
	gAcc, gPrec, gRec, gF1, gFPR, gECE, gWin *obs.Gauge
}

// NewScoreboard builds a scoreboard and registers its gauges.
func NewScoreboard(cfg Config) *Scoreboard {
	cfg.fillDefaults()
	s := &Scoreboard{cfg: cfg, names: classNames(cfg.NumClasses),
		win: newEpoch(cfg.NumClasses, scoreBins)}
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

// Observe scores one labeled prediction: ObserveChunk of one window.
// score is the model's reported probability for the positive (malware)
// class on binary boards, or its confidence in the predicted class
// otherwise; callers without probabilities pass the 0/1 verdict, which
// degrades calibration to a two-spike reliability curve but keeps the
// confusion metrics exact. Labels outside [0, NumClasses) are ignored.
func (s *Scoreboard) Observe(actual, predicted int, score float64) {
	s.ObserveChunk([]int{actual}, []int{predicted}, []float64{score})
}

// ObserveChunk scores a chunk of labeled predictions under one lock, with
// counts and calibration sums bit-identical to one Observe per window in
// order: actual[i], predicted[i] and scores[i] describe window i. Windows
// whose label or prediction falls outside [0, NumClasses) are skipped,
// so callers pass unlabeled windows with label -1.
func (s *Scoreboard) ObserveChunk(actual, predicted []int, scores []float64) {
	if s == nil {
		return
	}
	k := s.cfg.NumClasses
	predicted, scores = predicted[:len(actual)], scores[:len(actual)]
	var n int64
	s.mu.Lock()
	e := s.epochs[s.cur]
	for i, a := range actual {
		p := predicted[i]
		if a < 0 || a >= k || p < 0 || p >= k {
			continue
		}
		pos := a == p
		if k == 2 {
			pos = a == 1
		}
		score := scores[i]
		bin := s.scoreBin(score)
		e.conf.Observe(a, p)
		e.scoreHist[a][bin]++
		e.calN[bin]++
		e.calScore[bin] += score
		if pos {
			e.calPos[bin]++
		}
		n++
	}
	e.n += n
	s.observed += n
	s.mu.Unlock()
	if n > 0 {
		s.mObserved.Add(n)
	}
}

// Advance rotates the epoch ring, evicting the oldest epoch, and
// refreshes the exported gauges from the new sliding window. The ingest
// service calls it every 4096 windows of a tenant; rotation is the only
// form of eviction, so within-epoch observation order never changes a
// count. The calibration score sums are float adds: they hold the same
// bits when the windows are observed in the same order. The gauges read
// the merged window directly, with the snapshot's arithmetic, so they
// equal the Snapshot fields bit for bit and a rotation allocates nothing.
func (s *Scoreboard) Advance() {
	s.mu.Lock()
	s.cur = (s.cur + 1) % len(s.epochs)
	s.epochs[s.cur].reset()
	s.rotations++
	w := s.mergeLocked()
	acc := w.conf.Accuracy()
	prec, rec, f1, fpr := headline(w.conf)
	ece, n := w.ece(), w.n
	s.mu.Unlock()
	s.gAcc.Set(acc)
	s.gPrec.Set(prec)
	s.gRec.Set(rec)
	s.gF1.Set(f1)
	s.gFPR.Set(fpr)
	s.gECE.Set(ece)
	s.gWin.Set(float64(n))
}

// mergeLocked sums every epoch, in ring-slot order, into the
// scoreboard's scratch window and returns it. Snapshot and Advance both
// read it, so each float sum adds its terms in one order.
func (s *Scoreboard) mergeLocked() *epoch {
	w := s.win
	w.reset()
	for _, e := range s.epochs {
		w.conf.Merge(e.conf)
		for c, h := range e.scoreHist {
			for b, v := range h {
				w.scoreHist[c][b] += v
			}
		}
		for b := range w.calN {
			w.calN[b] += e.calN[b]
			w.calScore[b] += e.calScore[b]
			w.calPos[b] += e.calPos[b]
		}
		w.n += e.n
	}
	return w
}

// headline returns the exported precision, recall, F1 and FPR: the
// positive class's on a binary board, macro averages otherwise.
func headline(conf *eval.Confusion) (prec, rec, f1, fpr float64) {
	k := conf.NumClasses
	if k == 2 {
		return conf.Precision(1), conf.Recall(1), conf.F1(1), conf.FalsePositiveRate(1)
	}
	for c := 0; c < k; c++ {
		prec += conf.Precision(c)
		rec += conf.Recall(c)
		fpr += conf.FalsePositiveRate(c)
	}
	return prec / float64(k), rec / float64(k), conf.MacroF1(), fpr / float64(k)
}

// calBin returns the mean claimed score and the observed positive rate of
// calibration bin b, which must hold windows.
func (e *epoch) calBin(b int) (meanScore, positiveRate float64) {
	n := float64(e.calN[b])
	return e.calScore[b] / n, float64(e.calPos[b]) / n
}

// ece returns the expected calibration error: the support-weighted mean
// |claimed score − observed positive rate| across bins.
func (e *epoch) ece() float64 {
	if e.n == 0 {
		return 0
	}
	var sum float64
	for b, n := range e.calN {
		if n > 0 {
			mean, rate := e.calBin(b)
			diff := mean - rate
			if diff < 0 {
				diff = -diff
			}
			sum += diff * float64(n)
		}
	}
	return sum / float64(e.n)
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
// served as JSON on /quality. Its counts are the same at any observer
// parallelism; its mean scores and ECE, which read the calibration score
// sums, are bit-identical when one goroutine observes in arrival order.
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
	w := s.mergeLocked()
	conf := w.conf
	q := QualitySnapshot{
		Observed:       s.observed,
		WindowObserved: w.n,
		Epochs:         len(s.epochs),
		Rotations:      s.rotations,
		Classes:        append([]string{}, s.names...),
		Accuracy:       conf.Accuracy(),
		MacroF1:        conf.MacroF1(),
		ScoreBins:      bins,
		ECE:            w.ece(),
	}
	q.Precision, q.Recall, q.F1, q.FPR = headline(conf)
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
			Counts: append([]int64{}, w.scoreHist[c]...),
		})
	}
	width := 1 / float64(bins)
	for b := 0; b < bins; b++ {
		cb := CalibrationBin{Lo: float64(b) * width, Hi: float64(b+1) * width, Count: w.calN[b]}
		if w.calN[b] > 0 {
			cb.MeanScore, cb.PositiveRate = w.calBin(b)
		}
		q.Calibration = append(q.Calibration, cb)
	}
	return q
}
