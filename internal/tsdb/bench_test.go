package tsdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// populate registers a registry population comparable to a serve
// daemon's: counters, gauges, and a few histograms with observations.
func populate(r *obs.Registry) {
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i))
		r.Gauge(fmt.Sprintf("bench.gauge.%02d", i)).Set(float64(i) * 1.5)
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram(fmt.Sprintf("bench.hist.%02d", i), []float64{1, 5, 10, 50, 100})
		for j := 0; j < 100; j++ {
			h.Observe(float64(j % 60))
		}
	}
}

// BenchmarkScrape is the scrape-overhead gate for make bench-diff: one
// full registry snapshot plus ring appends for ~100 series. At the
// default 1 s interval this cost is paid once a second, entirely off
// the detection hot path.
func BenchmarkScrape(b *testing.B) {
	reg := obs.NewRegistry()
	populate(reg)
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkScrapeSteadyState measures the post-warmup path — every
// series exists, every ring is full, so appends are pure overwrites.
func BenchmarkScrapeSteadyState(b *testing.B) {
	reg := obs.NewRegistry()
	populate(reg)
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	// One scrape per 2-minute bucket opens a new bucket in every tier,
	// so longCapacity scrapes fill all three rings.
	for i := 0; i < longCapacity; i++ {
		st.ScrapeAt(t0.Add(time.Duration(i) * 2 * time.Minute))
	}
	t1 := t0.Add(longCapacity * 2 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ScrapeAt(t1.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkQueryRange prices a dashboard-style query: a full-retention
// range at the 15 s tier.
func BenchmarkQueryRange(b *testing.B) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	g := reg.Gauge("g")
	t0 := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 3600; i++ {
		g.Set(float64(i % 97))
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
	from, to := t0.UnixMilli(), t0.Add(time.Hour).UnixMilli()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.QueryRange("g", from, to, 15_000, "max"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordEvent prices one event into the full history ring.
func BenchmarkRecordEvent(b *testing.B) {
	st := New(Config{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	e := obs.Event{Type: "alert", Msg: "fpr-high", Value: 1}
	for i := 0; i < eventDepth; i++ {
		st.RecordEvent(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecordEvent(e)
	}
}
