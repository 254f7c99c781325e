package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Registry metric names exported by the DriftDetector. Per-feature PSI
// and KS gauges are named "drift.psi.<event>" / "drift.ks.<event>".
const (
	DriftingMetric      = "drift.features_drifting"
	DriftObservedMetric = "drift.windows_observed"
	psiMetricPrefix     = "drift.psi."
	ksMetricPrefix      = "drift.ks."
)

// Event types published to the bus when a feature's PSI crosses (or
// recovers below) the alert threshold.
const (
	EventDrift         = "drift"
	EventDriftResolved = "drift_resolved"
)

// FeatureBaseline is the train-time sketch of one HPC event's
// distribution: moments for a cheap human-readable summary, and a
// fixed-bin histogram that PSI and KS compare live traffic against.
type FeatureBaseline struct {
	Name string `json:"name"`
	// Count is the number of training windows sketched.
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Edges holds the Bins+1 bin boundaries; live values outside
	// [Edges[0], Edges[Bins]] clamp into the first/last bin, so a pure
	// range shift still lands all its mass in an edge bin and scores
	// maximal PSI rather than escaping the sketch.
	Edges  []float64 `json:"edges"`
	Counts []int64   `json:"counts"`
}

// Baseline is the full train-time sketch, one FeatureBaseline per HPC
// event, embedded into the run manifest so every deployed model carries
// the distribution it was fitted on.
type Baseline struct {
	Bins     int               `json:"bins"`
	Rows     int               `json:"rows"`
	Features []FeatureBaseline `json:"features"`
}

// CaptureBaseline sketches the training matrix: names[i] labels column i
// of rows. bins <= 0 defaults to 16.
func CaptureBaseline(names []string, rows [][]float64, bins int) (*Baseline, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("quality: empty training set")
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("quality: no feature names")
	}
	for i, row := range rows {
		if len(row) != len(names) {
			return nil, fmt.Errorf("quality: row %d has %d features, want %d",
				i, len(row), len(names))
		}
	}
	if bins <= 0 {
		bins = 16
	}
	b := &Baseline{Bins: bins, Rows: len(rows)}
	for f, name := range names {
		fb := FeatureBaseline{Name: name, Count: int64(len(rows))}
		var sum, sumSq float64
		fb.Min, fb.Max = rows[0][f], rows[0][f]
		for _, row := range rows {
			v := row[f]
			sum += v
			sumSq += v * v
			if v < fb.Min {
				fb.Min = v
			}
			if v > fb.Max {
				fb.Max = v
			}
		}
		n := float64(len(rows))
		fb.Mean = sum / n
		if variance := sumSq/n - fb.Mean*fb.Mean; variance > 0 {
			fb.Std = math.Sqrt(variance)
		}
		lo, hi := fb.Min, fb.Max
		if hi <= lo {
			// Degenerate (constant) feature: a unit-width bin still lets
			// PSI flag any live value that moves off the constant.
			hi = lo + 1
		}
		fb.Edges = make([]float64, bins+1)
		for i := 0; i <= bins; i++ {
			fb.Edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
		}
		fb.Counts = make([]int64, bins)
		for _, row := range rows {
			fb.Counts[binFor(fb.Edges, row[f])]++
		}
		b.Features = append(b.Features, fb)
	}
	return b, nil
}

// binFor locates v's bin by its edges, clamping out-of-range values into
// the first/last bin. Bin i covers (edges[i], edges[i+1]]: a value equal
// to an interior edge lands in the lower bin, bin 0 also takes
// edges[0] and everything below it, and the last bin takes everything
// above the top edge, and NaN. With edges 0, 1, …, 16 the value 1 goes
// to bin 0 and 2 to bin 1. Training and live windows share this rule
// (binIndex.bin reproduces it), so changing it would move every drift
// snapshot.
func binFor(edges []float64, v float64) int {
	bins := len(edges) - 1
	// SearchFloat64s returns the first edge >= v.
	i := sort.SearchFloat64s(edges, v)
	if i > 0 {
		i--
	}
	if i >= bins {
		i = bins - 1
	}
	return i
}

// binIndex looks up bins over one feature's validated edges (finite and
// non-decreasing) by binFor's rule without a binary search: the
// equal-width spacing CaptureBaseline lays down turns a value into a
// guess that is right or one bin off, and a walk against the edges
// corrects it, so any other sorted edges still get binFor's bin.
type binIndex struct {
	edges  []float64
	lo, hi float64 // edges[0] and the top edge
	scale  float64 // bins per unit of value, from the full edge span
	last   int     // the top bin
}

func newBinIndex(edges []float64) binIndex {
	bins := len(edges) - 1
	lo, hi := edges[0], edges[bins]
	return binIndex{edges: edges, lo: lo, hi: hi, scale: float64(bins) / (hi - lo), last: bins - 1}
}

// bin returns binFor(x.edges, v).
func (x *binIndex) bin(v float64) int {
	if !(v <= x.hi) { // above the top edge, or NaN
		return x.last
	}
	if v <= x.lo {
		return 0
	}
	// lo < v <= hi, so exactly one bin g has edges[g] < v <= edges[g+1].
	// A span too wide for float64 makes scale 0 and f 0 or NaN, and a
	// span too narrow makes f +Inf; the clamps and the walk absorb both.
	g := 0
	if f := (v - x.lo) * x.scale; f >= float64(x.last) {
		g = x.last
	} else if f > 0 {
		g = int(f)
	}
	e := x.edges
	for e[g] >= v {
		g--
	}
	for e[g+1] < v {
		g++
	}
	return g
}

// validate rejects a baseline the detector cannot index: it needs at
// least one bin, and every feature exactly Bins+1 finite,
// non-decreasing edges (binIndex's precondition), exactly Bins counts,
// and a positive Count.
func (b *Baseline) validate() error {
	if b.Bins < 1 {
		return fmt.Errorf("quality: baseline has %d bins, want at least 1", b.Bins)
	}
	for _, fb := range b.Features {
		if len(fb.Edges) != b.Bins+1 {
			return fmt.Errorf("quality: feature %q has %d edges, want %d", fb.Name, len(fb.Edges), b.Bins+1)
		}
		if len(fb.Counts) != b.Bins {
			return fmt.Errorf("quality: feature %q has %d counts, want %d", fb.Name, len(fb.Counts), b.Bins)
		}
		if fb.Count <= 0 {
			return fmt.Errorf("quality: feature %q has count %d, want > 0", fb.Name, fb.Count)
		}
		for i, e := range fb.Edges {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return fmt.Errorf("quality: feature %q edge %d is %v, want finite", fb.Name, i, e)
			}
			if i > 0 && e < fb.Edges[i-1] {
				return fmt.Errorf("quality: feature %q edge %d (%v) is below edge %d (%v)",
					fb.Name, i, e, i-1, fb.Edges[i-1])
			}
		}
	}
	return nil
}

// BaselineFromJSON decodes a baseline embedded in a run manifest's
// Baseline field.
func BaselineFromJSON(raw []byte) (*Baseline, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("quality: empty baseline")
	}
	b := &Baseline{}
	if err := json.Unmarshal(raw, b); err != nil {
		return nil, fmt.Errorf("quality: decoding baseline: %w", err)
	}
	if len(b.Features) == 0 {
		return nil, fmt.Errorf("quality: baseline has no features")
	}
	return b, nil
}

// JSON encodes the baseline for embedding into a manifest.
func (b *Baseline) JSON() (json.RawMessage, error) { return json.Marshal(b) }

// psiAlert is the PSI above which a feature counts as drifting and a
// drift event is published: the conventional "major shift" threshold
// (0.1–0.25 is the usual "investigate" band).
const psiAlert = 0.25

// DriftConfig configures a DriftDetector.
type DriftConfig struct {
	// Registry receives the exported gauges (default obs.DefaultRegistry).
	Registry *obs.Registry
	// Bus receives drift/drift_resolved events (default obs.DefaultBus).
	Bus *obs.Bus
}

// DriftDetector compares the live per-feature distributions of monitored
// windows against a train-time Baseline. All methods are safe for
// concurrent use.
type DriftDetector struct {
	mu   sync.Mutex
	base *Baseline
	cfg  DriftConfig
	// counts[epoch][feature][bin], sums/sumSqs[epoch][feature]: the live
	// sliding-window sketch. Counts are order-free; sums and sumSqs are
	// float adds, bit-identical when windows arrive in the same order,
	// like the scoreboard's calibration sums.
	counts   [][][]int64
	sums     [][]float64
	sumSqs   [][]float64
	ns       []int64
	cur      int
	observed int64
	drifting []bool
	index    []binIndex // per feature, over base's edges

	mObserved *obs.Counter
	gDrifting *obs.Gauge
	gPSI      []*obs.Gauge
	gKS       []*obs.Gauge
}

// NewDriftDetector builds a detector over a captured baseline and
// registers its gauges. It returns an error unless Bins >= 1 and every
// feature has exactly Bins+1 finite, non-decreasing edges, exactly Bins
// counts, and a positive Count.
func NewDriftDetector(base *Baseline, cfg DriftConfig) (*DriftDetector, error) {
	if base == nil || len(base.Features) == 0 {
		return nil, fmt.Errorf("quality: nil or empty baseline")
	}
	if err := base.validate(); err != nil {
		return nil, err
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.DefaultRegistry
	}
	if cfg.Bus == nil {
		cfg.Bus = obs.DefaultBus
	}
	d := &DriftDetector{
		base:     base,
		cfg:      cfg,
		drifting: make([]bool, len(base.Features)),
		ns:       make([]int64, epochs),
	}
	for e := 0; e < epochs; e++ {
		perFeature := make([][]int64, len(base.Features))
		for f := range perFeature {
			perFeature[f] = make([]int64, base.Bins)
		}
		d.counts = append(d.counts, perFeature)
		d.sums = append(d.sums, make([]float64, len(base.Features)))
		d.sumSqs = append(d.sumSqs, make([]float64, len(base.Features)))
	}
	d.mObserved = cfg.Registry.Counter(DriftObservedMetric)
	d.gDrifting = cfg.Registry.Gauge(DriftingMetric)
	for _, fb := range base.Features {
		d.gPSI = append(d.gPSI, cfg.Registry.Gauge(psiMetricPrefix+fb.Name))
		d.gKS = append(d.gKS, cfg.Registry.Gauge(ksMetricPrefix+fb.Name))
		d.index = append(d.index, newBinIndex(fb.Edges))
	}
	return d, nil
}

// Observe sketches one live window's feature vector: ObserveChunk of one
// window.
func (d *DriftDetector) Observe(vals []float64) {
	d.ObserveChunk([][]float64{vals})
}

// ObserveChunk sketches a chunk of live windows under one lock, with
// counts, sums and sums of squares bit-identical to one Observe per
// window in order. Vectors whose length does not match the baseline are
// ignored (a misconfigured event set is a setup error the caller
// surfaces elsewhere, not a drift signal).
func (d *DriftDetector) ObserveChunk(X [][]float64) {
	if d == nil {
		return
	}
	nf := len(d.index)
	n := 0
	for _, x := range X {
		if len(x) == nf {
			n++
		}
	}
	if n == 0 {
		return
	}
	d.mu.Lock()
	counts, sums, sumSqs := d.counts[d.cur], d.sums[d.cur], d.sumSqs[d.cur]
	// Feature-major, windows in arrival order within each feature: every
	// feature's sums take the same adds in the same order as per window.
	for f, idx := range d.index {
		c := counts[f]
		sum, sumSq := sums[f], sumSqs[f]
		for _, x := range X {
			if len(x) != nf {
				continue
			}
			v := x[f]
			c[idx.bin(v)]++
			sum += v
			sumSq += v * v
		}
		sums[f], sumSqs[f] = sum, sumSq
	}
	d.ns[d.cur] += int64(n)
	d.observed += int64(n)
	d.mu.Unlock()
	d.mObserved.Add(int64(n))
}

// Advance rotates the epoch ring, recomputes PSI/KS per feature over the
// new window, refreshes the gauges, and publishes drift (or recovery)
// events for features whose state changed.
func (d *DriftDetector) Advance() {
	d.mu.Lock()
	d.cur = (d.cur + 1) % epochs
	for f := range d.counts[d.cur] {
		for b := range d.counts[d.cur][f] {
			d.counts[d.cur][f][b] = 0
		}
		d.sums[d.cur][f] = 0
		d.sumSqs[d.cur][f] = 0
	}
	d.ns[d.cur] = 0
	snap := d.snapshotLocked()
	transitions := make([]obs.Event, 0, 2)
	for f, fd := range snap.Features {
		was := d.drifting[f]
		d.drifting[f] = fd.Drifting
		if fd.Drifting && !was {
			transitions = append(transitions, obs.Event{
				Type:  EventDrift,
				Msg:   fmt.Sprintf("%s: psi %.3f over threshold %.3g (ks %.3f)", fd.Name, fd.PSI, psiAlert, fd.KS),
				Value: fd.PSI,
			})
		} else if !fd.Drifting && was {
			transitions = append(transitions, obs.Event{
				Type:  EventDriftResolved,
				Msg:   fmt.Sprintf("%s: psi %.3f back under threshold %.3g", fd.Name, fd.PSI, psiAlert),
				Value: fd.PSI,
			})
		}
	}
	d.mu.Unlock()

	for f, fd := range snap.Features {
		d.gPSI[f].Set(fd.PSI)
		d.gKS[f].Set(fd.KS)
	}
	d.gDrifting.Set(float64(snap.Drifting))
	for _, e := range transitions {
		d.cfg.Bus.Publish(e)
		if e.Type == EventDrift {
			obs.Log().Warn("feature drift detected", "detail", e.Msg)
		} else {
			obs.Log().Info("feature drift resolved", "detail", e.Msg)
		}
	}
}

// FeatureDrift is one HPC event's live-vs-baseline comparison.
type FeatureDrift struct {
	Name string `json:"name"`
	// PSI is the Population Stability Index between the baseline
	// histogram and the live sliding window ( <0.1 stable, 0.1–0.25
	// shifting, >0.25 major shift).
	PSI float64 `json:"psi"`
	// KS is the Kolmogorov–Smirnov statistic: the maximum CDF gap, in
	// [0,1], over the shared bin edges.
	KS       float64 `json:"ks"`
	Drifting bool    `json:"drifting"`
	BaseMean float64 `json:"base_mean"`
	BaseStd  float64 `json:"base_std"`
	LiveMean float64 `json:"live_mean"`
	LiveStd  float64 `json:"live_std"`
}

// DriftSnapshot is the /drift payload: every feature's PSI/KS against the
// train-time baseline, over the live sliding window.
type DriftSnapshot struct {
	Observed       int64          `json:"observed"`
	WindowObserved int64          `json:"window_observed"`
	Bins           int            `json:"bins"`
	PSIAlert       float64        `json:"psi_alert"`
	Drifting       int            `json:"drifting"`
	Features       []FeatureDrift `json:"features"`
}

// Snapshot freezes the live-vs-baseline comparison.
func (d *DriftDetector) Snapshot() DriftSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *DriftDetector) snapshotLocked() DriftSnapshot {
	snap := DriftSnapshot{
		Observed: d.observed,
		Bins:     d.base.Bins,
		PSIAlert: psiAlert,
	}
	for _, n := range d.ns {
		snap.WindowObserved += n
	}
	live := make([]int64, d.base.Bins)
	for f, fb := range d.base.Features {
		for b := range live {
			live[b] = 0
		}
		var sum, sumSq float64
		for e := range d.counts {
			for b, c := range d.counts[e][f] {
				live[b] += c
			}
			sum += d.sums[e][f]
			sumSq += d.sumSqs[e][f]
		}
		fd := FeatureDrift{Name: fb.Name, BaseMean: fb.Mean, BaseStd: fb.Std}
		if snap.WindowObserved > 0 {
			n := float64(snap.WindowObserved)
			fd.LiveMean = sum / n
			if variance := sumSq/n - fd.LiveMean*fd.LiveMean; variance > 0 {
				fd.LiveStd = math.Sqrt(variance)
			}
			fd.PSI, fd.KS = psiKS(fb.Counts, fb.Count, live, snap.WindowObserved)
			fd.Drifting = fd.PSI >= psiAlert
		}
		snap.Features = append(snap.Features, fd)
		if fd.Drifting {
			snap.Drifting++
		}
	}
	return snap
}

// psiKS computes the Population Stability Index and the KS statistic
// between two histograms over the same bin edges. Empty expected bins are
// floored at a small epsilon so PSI stays finite when live mass lands
// where training saw nothing — exactly the shifts that matter most.
func psiKS(baseCounts []int64, baseN int64, liveCounts []int64, liveN int64) (psi, ks float64) {
	const eps = 1e-6
	var cdfBase, cdfLive float64
	for b := range baseCounts {
		p := float64(baseCounts[b]) / float64(baseN)
		q := float64(liveCounts[b]) / float64(liveN)
		pe, qe := math.Max(p, eps), math.Max(q, eps)
		psi += (qe - pe) * math.Log(qe/pe)
		cdfBase += p
		cdfLive += q
		if gap := math.Abs(cdfBase - cdfLive); gap > ks {
			ks = gap
		}
	}
	return psi, ks
}
