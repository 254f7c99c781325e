package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric. All methods are safe for concurrent
// use and safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta to the gauge (compare-and-swap loop), so
// concurrent workers can publish a live level — e.g. busy worker counts.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations
// v <= Bounds[i] (and greater than the previous bound); one implicit
// overflow bucket counts everything above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1, last = overflow
	count  int64
	sum    float64
	min    float64
	max    float64
	// exemplars holds the most recent trace-linked observation per bucket
	// (len(bounds)+1); allocated lazily on the first ObserveExemplar so
	// plain histograms pay nothing.
	exemplars []Exemplar
}

// Exemplar links one recorded observation to the trace that produced it,
// in the OpenMetrics sense: scraping `/metrics` with an OpenMetrics
// Accept header renders it as `# {trace_id="..."} value timestamp` after
// the matching bucket line, letting dashboards jump from a latency
// histogram straight to the trace waterfall.
type Exemplar struct {
	// Bucket indexes the histogram bucket the observation landed in
	// (len(Buckets) = the +Inf overflow bucket).
	Bucket     int     `json:"bucket"`
	Value      float64 `json:"value"`
	TraceID    string  `json:"trace_id"`
	TimeUnixMS int64   `json:"time_unix_ms"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64{}, bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value: ObserveN of one.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value under one lock and
// one bucket search. The sum still takes one add per observation, so it
// holds the same bits as n calls of Observe.
func (h *Histogram) ObserveN(v float64, n int) {
	if h == nil || n <= 0 {
		return
	}
	h.mu.Lock()
	h.observeLocked(v, n)
	h.mu.Unlock()
}

// observeLocked records n observations of v and returns their bucket.
func (h *Histogram) observeLocked(v float64, n int) int {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i] += int64(n)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += int64(n)
	for ; n > 0; n-- {
		h.sum += v
	}
	return i
}

// ObserveExemplar records one value like Observe and additionally stamps
// it as the bucket's current exemplar, linking the observation to the
// trace that produced it. nowUnixMS is the observation's wall-clock
// timestamp (passed in so hot paths reuse an already-taken timestamp).
// Only call this on traced observations: the exemplar slot table is
// allocated on first use and each call retains the trace id string.
func (h *Histogram) ObserveExemplar(v float64, traceID string, nowUnixMS int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.observeLocked(v, 1)
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = Exemplar{Bucket: i, Value: v, TraceID: traceID, TimeUnixMS: nowUnixMS}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot returns a copy of the histogram's buckets, counts, sum,
// extremes and exemplars, as Registry.Snapshot reports it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Buckets: append([]float64{}, h.bounds...),
		Counts:  append([]int64{}, h.counts...),
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	}
	for _, e := range h.exemplars {
		if e.TraceID != "" {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore buckets).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric while keeping the metric objects
// alive, so packages that cached instrument pointers at init keep
// recording into the registry after a per-run reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.mu.Lock()
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.count, h.sum, h.min, h.max = 0, 0, 0, 0
		h.exemplars = nil
		h.mu.Unlock()
	}
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	// Buckets holds the upper bounds; Counts has one extra entry for the
	// overflow bucket.
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	// Exemplars holds at most one trace-linked observation per bucket,
	// in bucket order; omitted entirely for histograms that never saw
	// ObserveExemplar, keeping pre-exemplar snapshot JSON byte-stable.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within buckets, clamped to the observed [Min, Max]. Returns NaN when the
// histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lo := h.Min
			if i > 0 {
				lo = math.Max(h.Buckets[i-1], h.Min)
			}
			hi := h.Max
			if i < len(h.Buckets) {
				hi = math.Min(h.Buckets[i], h.Max)
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.Max
}

// Snapshot is the frozen state of a registry. Maps serialize with sorted
// keys under encoding/json, so snapshots of the same run are byte-stable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(r.counters))
	for n, c := range r.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{n, c})
	}
	gauges := make([]struct {
		name string
		g    *Gauge
	}, 0, len(r.gauges))
	for n, g := range r.gauges {
		gauges = append(gauges, struct {
			name string
			g    *Gauge
		}{n, g})
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{n, h})
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, e := range counters {
		s.Counters[e.name] = e.c.Value()
	}
	for _, e := range gauges {
		s.Gauges[e.name] = e.g.Value()
	}
	for _, e := range hists {
		s.Histograms[e.name] = e.h.Snapshot()
	}
	return s
}

// RunSnapshot bundles a metrics snapshot with the span timing tree — the
// payload behind the CLI's -metrics-out flag.
type RunSnapshot struct {
	Snapshot
	Spans []SpanSnapshot `json:"spans,omitempty"`
}

// CaptureRun snapshots the default registry and tracer.
func CaptureRun() RunSnapshot {
	return RunSnapshot{
		Snapshot: DefaultRegistry.Snapshot(),
		Spans:    DefaultTracer.Snapshot(),
	}
}

// WriteRunSnapshot writes CaptureRun() to w as indented JSON.
func WriteRunSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(CaptureRun())
}
