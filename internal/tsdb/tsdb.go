// Package tsdb is the embedded time-series store of the observability
// stack: a bounded-memory, multi-resolution history of every metric the
// obs registry exports, held entirely in bounded ring buffers so
// a serve daemon can answer "what did windows/sec, F1 and drift PSI
// look like for the last day" without any external database.
//
// A scraper goroutine snapshots the registry on an interval (default
// 1 s) — snapshot-based, so nothing on the detection hot path ever
// blocks on the store — and streams each metric into three tiers:
//
//	raw   one point per scrape     (600 points ≈ 10 min at 1 s)
//	15s   15-second buckets        (480 points = 2 h)
//	2m    2-minute buckets         (720 points = 24 h)
//
// The raw tier keeps each scrape as a (t, v) pair; every 15s and 2m
// bucket keeps min/max/sum/count, so compaction preserves spikes (the
// max survives) and troughs (the min survives) instead of averaging
// them away. Histogram metrics become three derived series:
// "name:count" (cumulative observation count, rate-queryable) plus
// "name:p50" and "name:p99" sampled through the shared
// obs.HistogramSnapshot.Quantile helper.
//
// Memory is bounded by ring capacity, not wall-clock: each series costs
// at most 600 × 16 B + (480+720) × 40 B = 57.6 KB regardless of uptime,
// and the series population is bounded by the registry's metric names.
// A tier's slots grow with its points up to that bound, so a series
// holds the full 57.6 KB only once its 2m tier has filled, after a day;
// tsdb.ring_bytes reports the bytes the tiers hold. The store also
// retains a bounded ring of alert, drift and alarm events —
// the /alerts/history payload — so "what fired in the last hour"
// outlives the alert engine's current state.
package tsdb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Registry metric names exported by the Store about itself.
const (
	ScrapesMetric  = "tsdb.scrapes"
	SamplesMetric  = "tsdb.samples"
	SeriesMetric   = "tsdb.series"
	ScrapeMSMetric = "tsdb.scrape_ms"
	// RingBytesMetric gauges the bytes of every tier's allocated slots,
	// set at each scrape.
	RingBytesMetric = "tsdb.ring_bytes"
)

// Series kinds, reported in the catalog.
const (
	KindCounter = "counter" // cumulative; query with agg=rate for per-second
	KindGauge   = "gauge"   // instantaneous level
)

// Tier resolutions in milliseconds (raw is unbucketed).
const (
	midResMS  = 15_000
	longResMS = 120_000
)

// Per-series tier capacities in points: together they are the store's
// memory cap, bytes/series = 16 × raw + 40 × (mid+long). A tier holds
// fewer slots until it first fills.
const (
	rawCapacity  = 600
	midCapacity  = 480
	longCapacity = 720
)

// tierNames index-matches series.tiers.
var tierNames = []string{"raw", "15s", "2m"}

// eventDepth bounds the event-history ring.
const eventDepth = 512

// historyEvents are the bus event types the history ring keeps.
var historyEvents = map[string]bool{"alarm": true, "alert": true, "alert_resolved": true,
	"drift": true, "drift_resolved": true, "profile.regression": true}

// Config configures a Store. Zero fields take defaults.
type Config struct {
	// Registry is scraped into the store (default obs.DefaultRegistry).
	Registry *obs.Registry
	// Interval is the scrape period for Run (default 1 s).
	Interval time.Duration
	// Bus, when non-nil (default obs.DefaultBus), is watched by Run for
	// the historyEvents types, retained in a bounded history ring.
	Bus *obs.Bus
	// PreScrape, when set, runs at the start of every ScrapeAt — the
	// hook the runtime/metrics collector uses so runtime gauges are
	// refreshed on the same cadence as the series that record them.
	PreScrape func()
}

// Store is the embedded time-series database. All methods are safe for
// concurrent use; one Run goroutine writes, any number of queries read.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	series  map[string]*series
	events  *obs.Ring[obs.Event]
	firstMS int64
	lastMS  int64

	running atomic.Bool

	mScrapes   *obs.Counter
	mSamples   *obs.Counter
	gSeries    *obs.Gauge
	gRingBytes *obs.Gauge
	hScrape    *obs.Histogram
}

// New builds a store over the given registry without scraping yet.
func New(cfg Config) *Store {
	if cfg.Registry == nil {
		cfg.Registry = obs.DefaultRegistry
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Bus == nil {
		cfg.Bus = obs.DefaultBus
	}
	return &Store{
		cfg:        cfg,
		series:     map[string]*series{},
		events:     obs.NewRing[obs.Event](eventDepth, 0),
		mScrapes:   cfg.Registry.Counter(ScrapesMetric),
		mSamples:   cfg.Registry.Counter(SamplesMetric),
		gSeries:    cfg.Registry.Gauge(SeriesMetric),
		gRingBytes: cfg.Registry.Gauge(RingBytesMetric),
		hScrape:    cfg.Registry.Histogram(ScrapeMSMetric, []float64{0.1, 0.5, 1, 5, 10, 50}),
	}
}

// Interval returns the configured scrape period.
func (st *Store) Interval() time.Duration { return st.cfg.Interval }

// Running reports whether a Run loop is currently scraping — the
// /readyz signal that history is accumulating.
func (st *Store) Running() bool { return st != nil && st.running.Load() }

func (st *Store) observeLocked(name, kind string, tMS int64, v float64) {
	s, ok := st.series[name]
	if !ok {
		s = &series{name: name, kind: kind, tiers: []*ring{
			newRing(0, rawCapacity),
			newRing(midResMS, midCapacity),
			newRing(longResMS, longCapacity),
		}}
		st.series[name] = s
	}
	s.observe(tMS, v)
}

// ScrapeAt takes one sample of every registry metric, stamped at now —
// the testable core of Run. Counters and gauges become one series each;
// histograms become "name:count" plus "name:p50"/"name:p99" (quantiles
// are skipped while the histogram is empty, so the percentile series
// starts at the first observation instead of a misleading 0).
func (st *Store) ScrapeAt(now time.Time) {
	t0 := time.Now()
	if st.cfg.PreScrape != nil {
		st.cfg.PreScrape()
	}
	// Snapshot outside the store lock: the registry does its own locking
	// and the detection hot path only ever contends on that, never on
	// query traffic.
	snap := st.cfg.Registry.Snapshot()
	tMS := now.UnixMilli()
	samples := int64(0)

	st.mu.Lock()
	for name, v := range snap.Counters {
		st.observeLocked(name, KindCounter, tMS, float64(v))
		samples++
	}
	for name, v := range snap.Gauges {
		st.observeLocked(name, KindGauge, tMS, v)
		samples++
	}
	for name, h := range snap.Histograms {
		st.observeLocked(name+":count", KindCounter, tMS, float64(h.Count))
		samples++
		if h.Count > 0 {
			st.observeLocked(name+":p50", KindGauge, tMS, h.Quantile(0.50))
			st.observeLocked(name+":p99", KindGauge, tMS, h.Quantile(0.99))
			samples += 2
		}
	}
	if st.firstMS == 0 {
		st.firstMS = tMS
	}
	if tMS > st.lastMS {
		st.lastMS = tMS
	}
	nseries, ringBytes := len(st.series), 0
	for _, s := range st.series {
		for _, r := range s.tiers {
			ringBytes += r.bytes()
		}
	}
	st.mu.Unlock()

	st.mScrapes.Inc()
	st.mSamples.Add(samples)
	st.gSeries.Set(float64(nseries))
	st.gRingBytes.Set(float64(ringBytes))
	st.hScrape.Observe(float64(time.Since(t0).Microseconds()) / 1000)
}

// RecordEvent retains one event in the bounded history ring (exported
// for tests; Run feeds it from the bus).
func (st *Store) RecordEvent(e obs.Event) {
	st.mu.Lock()
	st.events.Add(e, 0, false)
	st.mu.Unlock()
}

// EventHistory is the /alerts/history payload.
type EventHistory struct {
	// Total counts every retained-type event ever seen; Depth is the
	// ring bound, so Total > Depth means the oldest have been evicted.
	Total int64 `json:"total"`
	Depth int   `json:"depth"`
	// Events is oldest-first.
	Events []obs.Event `json:"events"`
}

// Events returns the retained alert/drift/alarm history, oldest first.
func (st *Store) Events() EventHistory {
	st.mu.Lock()
	defer st.mu.Unlock()
	return EventHistory{Total: st.events.Added(), Depth: eventDepth, Events: st.events.Items()}
}

// Run scrapes on the configured interval and watches the bus for
// history events until ctx is done. It scrapes once immediately so
// queries and readiness have data from the first tick. Call it on its
// own goroutine.
func (st *Store) Run(ctx context.Context) {
	st.running.Store(true)
	defer st.running.Store(false)

	var events <-chan obs.Event
	if st.cfg.Bus != nil {
		sub := st.cfg.Bus.Subscribe(256)
		defer sub.Close()
		events = sub.Events()
	}

	st.ScrapeAt(time.Now())
	tick := time.NewTicker(st.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			st.ScrapeAt(now)
		case e, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			if historyEvents[e.Type] {
				st.RecordEvent(e)
			}
		}
	}
}

// HistoryDump is a compact export of the raw tier's recent window — the
// flight recorder embeds one in every incident so a dump shows the
// minutes before the trigger, not just the instant of it.
type HistoryDump struct {
	FromMS int64 `json:"from_ms"`
	ToMS   int64 `json:"to_ms"`
	// Series maps metric name to its raw-tier points inside the window,
	// oldest first.
	Series map[string][]Point `json:"series"`
}

// RecentHistory exports every series' raw-tier points from the last d
// of scraped time (relative to the newest sample).
func (st *Store) RecentHistory(d time.Duration) HistoryDump {
	st.mu.Lock()
	defer st.mu.Unlock()
	dump := HistoryDump{ToMS: st.lastMS, Series: map[string][]Point{}}
	dump.FromMS = dump.ToMS - d.Milliseconds()
	for name, s := range st.series {
		var pts []Point
		s.tiers[0].scan(dump.FromMS, dump.ToMS, func(p Point) {
			pts = append(pts, p)
		})
		if len(pts) > 0 {
			dump.Series[name] = pts
		}
	}
	return dump
}
