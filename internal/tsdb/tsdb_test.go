package tsdb

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// fill scrapes the store once per second of synthetic time, driving the
// gauge "g" through values[i] at t0+i seconds.
func fill(st *Store, r *obs.Registry, t0 time.Time, values []float64) {
	g := r.Gauge("g")
	for i, v := range values {
		g.Set(v)
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(0, 4)
	for i := 0; i < 10; i++ {
		r.observe(int64(i*1000), float64(i))
	}
	if r.length() != 4 {
		t.Fatalf("length = %d, want 4", r.length())
	}
	oldest, ok := r.oldest()
	if !ok || oldest != 6000 {
		t.Fatalf("oldest = %d ok=%v, want 6000 (capacity evicts, not wall-clock)", oldest, ok)
	}
	var got []float64
	r.scan(0, math.MaxInt64, func(p Point) { got = append(got, p.Sum) })
	want := []float64{6, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	// Bucketed ring: samples inside one slot merge instead of appending.
	b := newRing(15_000, 4)
	for i := 0; i < 30; i++ {
		b.observe(int64(i*1000), float64(i))
	}
	if b.length() != 2 {
		t.Fatalf("bucketed length = %d, want 2 (30 s = two 15 s buckets)", b.length())
	}
	var pts []Point
	b.scan(0, math.MaxInt64, func(p Point) { pts = append(pts, p) })
	if pts[0].T != 0 || pts[0].Count != 15 || pts[0].Min != 0 || pts[0].Max != 14 {
		t.Fatalf("bucket 0 = %+v", pts[0])
	}
	if pts[1].T != 15_000 || pts[1].Count != 15 || pts[1].Min != 15 || pts[1].Max != 29 {
		t.Fatalf("bucket 1 = %+v", pts[1])
	}
}

// TestDownsamplingInvariants pins the compaction contract: every
// downsampled bucket's min/max bound the raw samples it covers, its sum
// is their exact sum, and its count their exact count — so no tier ever
// hides a spike the raw tier saw.
func TestDownsamplingInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	// 10 minutes of a sawtooth with one huge spike.
	vals := make([]float64, 600)
	for i := range vals {
		vals[i] = float64(i % 37)
	}
	vals[311] = 1e6
	fill(st, reg, t0, vals)

	st.mu.Lock()
	s := st.series["g"]
	raw, mid, long := s.tiers[0], s.tiers[1], s.tiers[2]
	for _, tier := range []*ring{mid, long} {
		tier.scan(0, math.MaxInt64, func(b Point) {
			var want Point
			want.T = b.T
			raw.scan(b.T, b.T+tier.resMS-1, func(p Point) { want.merge(p) })
			if b.Min != want.Min || b.Max != want.Max || b.Count != want.Count ||
				math.Abs(b.Sum-want.Sum) > 1e-9 {
				t.Errorf("tier res=%d bucket %d = %+v, raw says %+v", tier.resMS, b.T, b, want)
			}
			raw.scan(b.T, b.T+tier.resMS-1, func(p Point) {
				if p.Min < b.Min || p.Max > b.Max {
					t.Errorf("raw point %+v escapes tier bucket %+v", p, b)
				}
			})
		})
	}
	st.mu.Unlock()

	// The spike survives into every tier's max.
	for _, step := range []int64{0, 15_000, 120_000} {
		qr, err := st.QueryRange("g", t0.UnixMilli(), t0.Add(10*time.Minute).UnixMilli(), step, "max")
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		peak := 0.0
		for _, p := range qr.Points {
			if p.V > peak {
				peak = p.V
			}
		}
		if peak != 1e6 {
			t.Errorf("step %d (tier %s): spike flattened to %g", step, qr.Tier, peak)
		}
	}
}

func TestQueryRangeTierSelection(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	vals := make([]float64, 6000) // raw retains only the last 10 of 100 minutes
	for i := range vals {
		vals[i] = float64(i)
	}
	fill(st, reg, t0, vals)
	from, to := t0.UnixMilli(), t0.Add(100*time.Minute).UnixMilli()

	// step 0 over the full range: raw can't reach back 100 min, the 15 s
	// tier can.
	qr, err := st.QueryRange("g", from, to, 0, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Tier != "15s" || qr.StepMS != 15_000 {
		t.Fatalf("full-range tier = %s step %d, want 15s/15000", qr.Tier, qr.StepMS)
	}
	if len(qr.Points) != 400 {
		t.Fatalf("points = %d, want 400 (6000 s / 15 s)", len(qr.Points))
	}

	// A recent narrow window at fine step answers from raw.
	qr, err = st.QueryRange("g", to-30_000, to, 1000, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Tier != "raw" {
		t.Fatalf("recent window tier = %s, want raw", qr.Tier)
	}

	// A coarse step prefers the coarse tier even when raw covers it.
	qr, err = st.QueryRange("g", to-30_000, to, 120_000, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Tier != "2m" {
		t.Fatalf("coarse step tier = %s, want 2m", qr.Tier)
	}
}

func TestQueryRangeEdgeCases(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	fill(st, reg, t0, []float64{1, 2, 3})
	from := t0.UnixMilli()

	// Unknown metric.
	if _, err := st.QueryRange("no.such.metric", from, from+1000, 0, "avg"); !errors.Is(err, ErrUnknownMetric) {
		t.Errorf("unknown metric err = %v", err)
	}
	// from > to.
	if _, err := st.QueryRange("g", from+1000, from, 0, "avg"); !errors.Is(err, ErrBadRange) {
		t.Errorf("from>to err = %v", err)
	}
	// Bad aggregation.
	if _, err := st.QueryRange("g", from, from+1000, 0, "median"); !errors.Is(err, ErrBadAgg) {
		t.Errorf("bad agg err = %v", err)
	}
	// Empty range before any data: valid, zero points.
	qr, err := st.QueryRange("g", from-10_000, from-5_000, 0, "avg")
	if err != nil || len(qr.Points) != 0 {
		t.Errorf("pre-history query = %+v, %v; want empty, nil", qr.Points, err)
	}
	// Entirely in the future: valid, zero points.
	qr, err = st.QueryRange("g", from+3_600_000, from+7_200_000, 0, "avg")
	if err != nil || len(qr.Points) != 0 {
		t.Errorf("future query = %+v, %v; want empty, nil", qr.Points, err)
	}
	// A window ending in the future still returns what exists.
	qr, err = st.QueryRange("g", from, from+3_600_000, 1000, "avg")
	if err != nil || len(qr.Points) != 3 {
		t.Errorf("overhanging query = %d points, %v; want 3", len(qr.Points), err)
	}
}

func TestQueryRangeRate(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	c := reg.Counter("work")
	t0 := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 60; i++ {
		c.Add(10) // 10/s steady
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
	qr, err := st.QueryRange("work", t0.Add(10*time.Second).UnixMilli(),
		t0.Add(50*time.Second).UnixMilli(), 1000, "rate")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Points) == 0 {
		t.Fatal("no rate points")
	}
	for _, p := range qr.Points {
		if math.Abs(p.V-10) > 1e-9 {
			t.Fatalf("rate point %+v, want steady 10/s", p)
		}
	}
	// Counter reset clamps at 0 instead of going negative.
	reg.Reset()
	st.ScrapeAt(t0.Add(61 * time.Second))
	qr, err = st.QueryRange("work", t0.Add(60*time.Second).UnixMilli(),
		t0.Add(62*time.Second).UnixMilli(), 1000, "rate")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range qr.Points {
		if p.V < 0 {
			t.Fatalf("negative rate %+v across counter reset", p)
		}
	}
}

func TestScrapeHistogramSeries(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	// Empty histogram: count series exists, quantile series withheld.
	reg.Histogram("lat", []float64{1, 10, 100})
	st.ScrapeAt(t0)
	if _, err := st.QueryRange("lat:count", t0.UnixMilli(), t0.UnixMilli(), 0, "avg"); err != nil {
		t.Errorf("lat:count after empty scrape: %v", err)
	}
	if _, err := st.QueryRange("lat:p99", t0.UnixMilli(), t0.UnixMilli(), 0, "avg"); err == nil {
		t.Error("lat:p99 exists before any observation")
	}
	// After observations, the quantile series appear, via the shared helper.
	h := reg.Histogram("lat", nil)
	for _, v := range []float64{1, 2, 3, 50} {
		h.Observe(v)
	}
	st.ScrapeAt(t0.Add(time.Second))
	qr, err := st.QueryRange("lat:p99", t0.UnixMilli(), t0.Add(time.Second).UnixMilli(), 0, "avg")
	if err != nil || len(qr.Points) != 1 {
		t.Fatalf("lat:p99 = %+v, %v", qr, err)
	}
	if qr.Points[0].V <= 0 {
		t.Errorf("p99 = %g, want positive", qr.Points[0].V)
	}
	cat := st.Series()
	kinds := map[string]string{}
	for _, s := range cat.Series {
		kinds[s.Name] = s.Kind
	}
	if kinds["lat:count"] != KindCounter || kinds["lat:p99"] != KindGauge {
		t.Errorf("catalog kinds = %v", kinds)
	}
}

func TestSeriesCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	fill(st, reg, t0, []float64{1, 2, 3})
	cat := st.Series()
	if cat.FirstMS != t0.UnixMilli() || cat.LastMS != t0.Add(2*time.Second).UnixMilli() {
		t.Errorf("catalog range = %d..%d", cat.FirstMS, cat.LastMS)
	}
	var g *SeriesInfo
	for i := range cat.Series {
		if cat.Series[i].Name == "g" {
			g = &cat.Series[i]
		}
	}
	if g == nil || g.Kind != KindGauge || g.Samples != 3 {
		t.Fatalf("series g = %+v", g)
	}
	if len(g.Tiers) != 3 || g.Tiers[0].Capacity != rawCapacity ||
		g.Tiers[1].Capacity != midCapacity || g.Tiers[2].Capacity != longCapacity {
		t.Fatalf("tiers = %+v", g.Tiers)
	}
	if g.Tiers[0].Name != "raw" || g.Tiers[1].ResMS != 15_000 || g.Tiers[2].ResMS != 120_000 {
		t.Fatalf("tier meta = %+v", g.Tiers)
	}
	// Catalog is name-sorted for stable JSON.
	for i := 1; i < len(cat.Series); i++ {
		if cat.Series[i-1].Name > cat.Series[i].Name {
			t.Fatalf("catalog unsorted at %d: %s > %s", i, cat.Series[i-1].Name, cat.Series[i].Name)
		}
	}
}

func TestEventHistoryRing(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Bus: obs.NewBus()})
	total := eventDepth + 3
	for i := 0; i < total; i++ {
		st.RecordEvent(obs.Event{Type: "alert", Window: i})
	}
	h := st.Events()
	if h.Total != int64(total) || h.Depth != eventDepth || len(h.Events) != eventDepth {
		t.Fatalf("history = total %d depth %d len %d", h.Total, h.Depth, len(h.Events))
	}
	if h.Events[0].Window != 3 || h.Events[eventDepth-1].Window != total-1 {
		t.Fatalf("history order = %+v", h.Events)
	}
}

func TestRunScrapesAndWatches(t *testing.T) {
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	reg.Counter("c").Add(5)
	st := New(Config{Registry: reg, Interval: 5 * time.Millisecond, Bus: bus})
	if st.Running() {
		t.Fatal("running before Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); st.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for {
		if st.Running() {
			if qr, err := st.QueryRange("c", 0, time.Now().UnixMilli(), 0, "avg"); err == nil && len(qr.Points) > 0 {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("Run never scraped the counter")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Bus events of a retained type land in history; others are dropped.
	bus.Publish(obs.Event{Type: "alarm", Msg: "boom"})
	bus.Publish(obs.Event{Type: "window", Msg: "ignored"})
	for st.Events().Total == 0 {
		select {
		case <-deadline:
			t.Fatal("alarm event never retained")
		case <-time.After(5 * time.Millisecond):
		}
	}
	h := st.Events()
	if h.Events[0].Type != "alarm" {
		t.Fatalf("history = %+v", h.Events)
	}
	for _, e := range h.Events {
		if e.Type == "window" {
			t.Fatal("unretained event type leaked into history")
		}
	}
	cancel()
	<-done
	if st.Running() {
		t.Error("still running after ctx cancel")
	}
}

func TestRecentHistory(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	t0 := time.UnixMilli(1_700_000_000_000)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i)
	}
	fill(st, reg, t0, vals)
	dump := st.RecentHistory(time.Minute)
	if dump.ToMS != t0.Add(299*time.Second).UnixMilli() {
		t.Fatalf("ToMS = %d", dump.ToMS)
	}
	pts := dump.Series["g"]
	if len(pts) != 61 { // inclusive minute window at 1 s cadence
		t.Fatalf("history points = %d, want 61", len(pts))
	}
	if pts[0].Sum != 239 || pts[len(pts)-1].Sum != 299 {
		t.Fatalf("history window = %g..%g, want 239..299", pts[0].Sum, pts[len(pts)-1].Sum)
	}
}

// TestConcurrentScrapeAndQuery races the single writer against many
// readers; run under -race this is the store's thread-safety gate.
func TestConcurrentScrapeAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Bus: obs.NewBus()})
	g := reg.Gauge("g")
	reg.Counter("c")
	reg.Histogram("h", []float64{1, 2}).Observe(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t0 := time.UnixMilli(1_700_000_000_000)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Set(float64(i))
			st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
			st.RecordEvent(obs.Event{Type: "alert", Window: i})
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		st.Series()
		st.QueryRange("g", 0, math.MaxInt64/2, 15_000, "max")
		st.QueryRange("c", 0, math.MaxInt64/2, 0, "rate")
		st.Events()
		st.RecentHistory(time.Minute)
	}
	close(stop)
	<-done
}
