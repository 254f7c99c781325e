package tsdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// TestRecordEventZeroAlloc: once the history ring is full, recording an
// event allocates nothing.
func TestRecordEventZeroAlloc(t *testing.T) {
	st := New(Config{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	e := obs.Event{Type: "alert", Msg: "fpr-high", Value: 1}
	for i := 0; i < eventDepth; i++ {
		st.RecordEvent(e)
	}
	if n := testing.AllocsPerRun(1000, func() { st.RecordEvent(e) }); n != 0 {
		t.Fatalf("RecordEvent on a full ring allocates %.1f/op, want 0", n)
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

// refRing is the raw tier as it was before raw points became (t, v)
// pairs: a ring of 40-byte Points, kept as the reference the raw tier
// must answer exactly as. It is today's ring code at resMS 0.
type refRing struct {
	pts  []Point
	next int
	full bool
}

func (r *refRing) observe(tMS int64, v float64) {
	last := -1
	if r.next != 0 || r.full {
		last = (r.next - 1 + len(r.pts)) % len(r.pts)
	}
	if last >= 0 && r.pts[last].T == tMS {
		r.pts[last].observe(v)
		return
	}
	p := Point{T: tMS}
	p.observe(v)
	r.pts[r.next] = p
	r.next = (r.next + 1) % len(r.pts)
	if r.next == 0 {
		r.full = true
	}
}

// ring returns a bucketed-layout ring over the reference's points, for
// a store whose queries must read them through the shared query code.
func (r *refRing) ring() *ring {
	return &ring{pts: r.pts, bound: len(r.pts), next: r.next, full: r.full}
}

// refValue draws a sample: small integers and fractions, zeros of both
// signs, and magnitudes far apart, so sums and means round.
func refValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return float64(rng.Intn(100))
	case 3:
		return rng.NormFloat64() * 1e12
	default:
		return rng.Float64()
	}
}

// TestRawTierMatchesPointRing feeds random strictly increasing scrape
// sequences (wrapping the 600-point raw tier, with gaps) into a store
// and into the reference ring. A twin store answers from the reference
// ring's points; every query, the catalog and the recent history must
// read byte for byte the same on both.
func TestRawTierMatchesPointRing(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := New(Config{Registry: obs.NewRegistry(), Interval: time.Second, Bus: obs.NewBus()})
		names := map[string]string{"c": KindCounter, "g": KindGauge, "h:p99": KindGauge}
		refs := map[string]*refRing{}
		tMS := int64(1_700_000_000_000) + rng.Int63n(120_000)
		counter := 0.0
		samples := 700 + rng.Intn(2300) // past the 600-point raw tier
		if seed == 1 {
			samples = 400 // a raw tier that never fills
		}
		for i := 0; i < samples; i++ {
			switch k := rng.Intn(20); {
			case k == 0:
				tMS += 1 + rng.Int63n(999) // sub-interval
			case k == 1:
				tMS += rng.Int63n(3_600_000) // an outage of up to an hour
			case k < 4:
				tMS += rng.Int63n(300_000)
			default:
				tMS += 1000
			}
			counter += float64(rng.Intn(50))
			st.mu.Lock()
			for name, kind := range names {
				v := refValue(rng)
				if kind == KindCounter {
					v = counter
				}
				if rng.Intn(10) == 0 && name != "c" {
					continue // a series that misses a scrape
				}
				st.observeLocked(name, kind, tMS, v)
				if refs[name] == nil {
					refs[name] = &refRing{pts: make([]Point, rawCapacity)}
				}
				refs[name].observe(tMS, v)
			}
			if st.firstMS == 0 {
				st.firstMS = tMS
			}
			st.lastMS = tMS
			st.mu.Unlock()
		}

		// The raw rings themselves agree point for point.
		for name, ref := range refs {
			raw, want := st.series[name].tiers[0], ref.ring()
			if raw.length() != want.length() || raw.capacity() != want.capacity() {
				t.Fatalf("seed %d %s: length/capacity %d/%d, reference %d/%d", seed, name,
					raw.length(), raw.capacity(), want.length(), want.capacity())
			}
			for i := 0; i < raw.capacity(); i++ {
				if got, ref := raw.at(i), want.at(i); i < raw.length() && !samePoint(got, ref) {
					t.Fatalf("seed %d %s slot %d: %+v, reference %+v", seed, name, i, got, ref)
				}
			}
		}

		twin := New(Config{Registry: obs.NewRegistry(), Interval: time.Second, Bus: obs.NewBus()})
		twin.firstMS, twin.lastMS = st.firstMS, st.lastMS
		for name, s := range st.series {
			twin.series[name] = &series{name: name, kind: s.kind, samples: s.samples,
				tiers: []*ring{refs[name].ring(), s.tiers[1], s.tiers[2]}}
		}

		first, last := st.firstMS, st.lastMS
		rawOldest, _ := st.series["c"].tiers[0].oldest()
		windows := [][2]int64{
			{first, last},
			{last - 30_000, last},
			{last - 10*60_000, last},
			{rawOldest - 1, last},
			{rawOldest, rawOldest + 90_000},
			{rawOldest + 1, last},
			{first - 3_600_000, first + 600_000},
			{last + 1, last + 3_600_000},
			{first + (last-first)/3, first + 2*(last-first)/3},
			{last, last - 1}, // from after to
		}
		for i := 0; i < 4; i++ {
			a, b := first+rng.Int63n(last-first+1), first+rng.Int63n(last-first+1)
			windows = append(windows, [2]int64{min(a, b), max(a, b)})
		}
		steps := []int64{0, 1, 1000, 7_000, 15_000, 45_000, 120_000, 3_600_000}
		for name := range refs {
			for _, w := range windows {
				for _, step := range steps {
					for _, agg := range append([]string{""}, Aggregations...) {
						got, gerr := st.QueryRange(name, w[0], w[1], step, agg)
						want, werr := twin.QueryRange(name, w[0], w[1], step, agg)
						if gj, wj := mustJSON(t, got, gerr), mustJSON(t, want, werr); gj != wj {
							t.Fatalf("seed %d %s %v step %d agg %q:\n got %s\nwant %s",
								seed, name, w, step, agg, gj, wj)
						}
					}
				}
			}
		}
		if g, w := mustJSON(t, st.Series(), nil), mustJSON(t, twin.Series(), nil); g != w {
			t.Fatalf("seed %d catalog:\n got %s\nwant %s", seed, g, w)
		}
		for _, d := range []time.Duration{time.Second, time.Minute, 5 * time.Minute, time.Hour} {
			if g, w := mustJSON(t, st.RecentHistory(d), nil), mustJSON(t, twin.RecentHistory(d), nil); g != w {
				t.Fatalf("seed %d RecentHistory(%s):\n got %s\nwant %s", seed, d, g, w)
			}
		}
	}
}

// samePoint compares two points bit for bit, so -0 and +0 differ.
func samePoint(a, b Point) bool {
	return a.T == b.T && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
}

func mustJSON(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRawTierLastValueWins pins the one place the (t, v) raw tier
// differs from the 40-byte bucket ring it replaced: a second sample in
// the same millisecond replaces the first instead of averaging into a
// Count-2 bucket. Run's ticker never scrapes twice in one millisecond.
func TestRawTierLastValueWins(t *testing.T) {
	r := newRing(0, 4)
	ref := &refRing{pts: make([]Point, 4)}
	for _, v := range []float64{1, 3} {
		r.observe(1000, v)
		ref.observe(1000, v)
	}
	r.observe(2000, 5)
	var got []Point
	r.scan(0, math.MaxInt64, func(p Point) { got = append(got, p) })
	want := []Point{{T: 1000, Min: 3, Max: 3, Sum: 3, Count: 1}, {T: 2000, Min: 5, Max: 5, Sum: 5, Count: 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("raw tier = %+v, want %+v", got, want)
	}
	if old := ref.pts[0]; old.Count != 2 || old.Sum != 4 {
		t.Fatalf("reference bucket = %+v, want the Count-2 average the bucket ring kept", old)
	}
}

// TestBucketStart pins the output-bucket arithmetic to the index form
// it replaced, (t-from)/step*step+from, wherever that form does not
// overflow, and checks it stays inside [from, t] where it would.
func TestBucketStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		from := 1_700_000_000_000 + rng.Int63n(1e9) - 5e8
		step := 1 + rng.Int63n(200_000)
		tMS := from - step + 1 + rng.Int63n(1e9)
		if want := from + (tMS-from)/step*step; bucketStart(tMS, from, step) != want {
			t.Fatalf("bucketStart(%d, %d, %d) = %d, want %d", tMS, from, step, bucketStart(tMS, from, step), want)
		}
	}
	for _, c := range [][3]int64{
		{1_700_000_000_000, math.MinInt64, 1},
		{1_700_000_000_000, math.MinInt64, 15_000},
		{math.MaxInt64, math.MinInt64, 3},
		{math.MaxInt64, math.MinInt64, math.MaxInt64},
	} {
		got := bucketStart(c[0], c[1], c[2])
		if got < c[1] || got > c[0] || uint64(c[0]-got) >= uint64(c[2]) {
			t.Fatalf("bucketStart(%d, %d, %d) = %d, outside its step", c[0], c[1], c[2], got)
		}
	}
}

// fillLevels are the point counts at which a growing tier of the given
// capacity is compared with the preallocated one: empty, one point,
// around its first growth, around the bound and well past it.
func fillLevels(capacity int) []int {
	return []int{0, 1, 7, 8, 9, capacity - 1, capacity, capacity + 1, 3 * capacity}
}

// nextSample advances tMS for a tier whose slot is slotMS wide: mostly
// to the next slot, sometimes inside the same millisecond or slot, and
// sometimes across a gap of many slots.
func nextSample(rng *rand.Rand, tMS, slotMS int64) int64 {
	switch rng.Intn(10) {
	case 0:
		return tMS // the same millisecond
	case 1:
		return tMS + rng.Int63n(slotMS) // often the same slot
	case 2:
		return tMS + slotMS*(2+rng.Int63n(200)) // a gap
	default:
		return tMS + slotMS
	}
}

// sameTier fails unless the growing ring reads exactly as the
// preallocated one, and holds no more bytes than its bound (all of them
// once it is full).
func sameTier(t *testing.T, what string, rng *rand.Rand, r *ring, ref *preallocRing) {
	t.Helper()
	if r.length() != ref.length() || r.capacity() != ref.capacity() {
		t.Fatalf("%s: length/capacity %d/%d, reference %d/%d", what, r.length(), r.capacity(), ref.length(), ref.capacity())
	}
	o, ok := r.oldest()
	if ro, rok := ref.oldest(); o != ro || ok != rok {
		t.Fatalf("%s: oldest %d %v, reference %d %v", what, o, ok, ro, rok)
	}
	collect := func(scan func(int64, int64, func(Point)), from, to int64) []Point {
		var pts []Point
		scan(from, to, func(p Point) { pts = append(pts, p) })
		return pts
	}
	all := collect(ref.scan, math.MinInt64, math.MaxInt64)
	windows := [][2]int64{{math.MinInt64, math.MaxInt64}}
	for i := 0; i < 6 && len(all) > 0; i++ {
		a, b := all[rng.Intn(len(all))].T, all[rng.Intn(len(all))].T
		windows = append(windows, [2]int64{min(a, b) - rng.Int63n(2), max(a, b) + rng.Int63n(2)})
	}
	for _, w := range windows {
		got, want := collect(r.scan, w[0], w[1]), collect(ref.scan, w[0], w[1])
		if len(got) != len(want) {
			t.Fatalf("%s: scan %v found %d points, reference %d", what, w, len(got), len(want))
		}
		for i := range got {
			if !samePoint(got[i], want[i]) {
				t.Fatalf("%s: scan %v point %d = %+v, reference %+v", what, w, i, got[i], want[i])
			}
		}
		for _, from := range w {
			p, ok := r.lastBefore(from)
			if rp, rok := ref.lastBefore(from); ok != rok || !samePoint(p, rp) {
				t.Fatalf("%s: lastBefore(%d) = %+v %v, reference %+v %v", what, from, p, ok, rp, rok)
			}
		}
	}
	slotBytes := pointBytes
	if r.resMS == 0 {
		slotBytes = sampleBytes
	}
	bound := r.capacity() * slotBytes
	if r.bytes() > bound || (r.length() == r.capacity() && r.bytes() != bound) {
		t.Fatalf("%s: holds %d B with %d of %d points, bound %d B", what, r.bytes(), r.length(), r.capacity(), bound)
	}
}

// TestGrowingTierMatchesPrealloc drives every tier, alone and as the
// three tiers of a store's series, through the growing ring and through
// the preallocated ring it replaced (ring_ref_test.go), with gaps,
// samples in one slot and samples in one millisecond. At fill levels
// 0, 1, 7–9, capacity−1, capacity, capacity+1 and 3 × capacity every
// ring read, query, catalog and history dump must be byte-identical,
// and each tier holds at most its bound's bytes, exactly them when full.
func TestGrowingTierMatchesPrealloc(t *testing.T) {
	for _, sp := range []struct {
		resMS    int64
		capacity int
	}{{0, rawCapacity}, {midResMS, midCapacity}, {longResMS, longCapacity}, {0, 5}, {midResMS, 12}} {
		rng := rand.New(rand.NewSource(sp.resMS + int64(sp.capacity)))
		r, ref := newRing(sp.resMS, sp.capacity), newPreallocRing(sp.resMS, sp.capacity)
		slotMS := max(sp.resMS, 1000)
		tMS := int64(1_700_000_000_000) + rng.Int63n(slotMS)
		written := 0
		for _, level := range fillLevels(sp.capacity) {
			for written < level {
				tMS = nextSample(rng, tMS, slotMS)
				v := refValue(rng)
				next, full := ref.next, ref.full
				r.observe(tMS, v)
				ref.observe(tMS, v)
				if ref.next != next || ref.full != full {
					written++
				}
			}
			sameTier(t, fmt.Sprintf("res %d cap %d at %d points", sp.resMS, sp.capacity, level), rng, r, ref)
		}
	}

	rng := rand.New(rand.NewSource(7))
	st := New(Config{Registry: obs.NewRegistry(), Interval: time.Second, Bus: obs.NewBus()})
	refs := []*preallocRing{newPreallocRing(0, rawCapacity),
		newPreallocRing(midResMS, midCapacity), newPreallocRing(longResMS, longCapacity)}
	tMS := int64(1_700_000_000_000) + rng.Int63n(longResMS)
	written := 0
	var levels []int
	for _, c := range []int{rawCapacity, midCapacity, longCapacity} {
		levels = append(levels, fillLevels(c)...)
	}
	sort.Ints(levels)
	for _, level := range levels {
		for written < level {
			tMS = nextSample(rng, tMS, longResMS)
			v := refValue(rng)
			next := refs[0].next
			st.mu.Lock()
			st.observeLocked("g", KindGauge, tMS, v)
			if st.firstMS == 0 {
				st.firstMS = tMS
			}
			st.lastMS = tMS
			st.mu.Unlock()
			for _, ref := range refs {
				ref.observe(tMS, v)
			}
			if refs[0].next != next || refs[0].full {
				written++
			}
		}
		twin := New(Config{Registry: obs.NewRegistry(), Interval: time.Second, Bus: obs.NewBus()})
		twin.firstMS, twin.lastMS = st.firstMS, st.lastMS
		if s := st.series["g"]; s != nil {
			twin.series["g"] = &series{name: "g", kind: s.kind, samples: s.samples,
				tiers: []*ring{refs[0].ring(), refs[1].ring(), refs[2].ring()}}
			for i, r := range s.tiers {
				sameTier(t, fmt.Sprintf("store tier %s after %d raw points", tierNames[i], level), rng, r, refs[i])
			}
		}
		first, last := st.firstMS, st.lastMS
		windows := [][2]int64{{first, last}, {last - 30_000, last}, {last - 10*60_000, last},
			{last - 2*3_600_000, last}, {last - 24*3_600_000, last}, {first - 3_600_000, first + 600_000}}
		for i := 0; i < 3; i++ {
			a, b := first+rng.Int63n(last-first+1), first+rng.Int63n(last-first+1)
			windows = append(windows, [2]int64{min(a, b), max(a, b)})
		}
		for _, w := range windows {
			for _, step := range []int64{0, 1000, 15_000, 45_000, 120_000, 3_600_000} {
				for _, agg := range Aggregations {
					got, gerr := st.QueryRange("g", w[0], w[1], step, agg)
					want, werr := twin.QueryRange("g", w[0], w[1], step, agg)
					if gj, wj := mustJSON(t, got, gerr), mustJSON(t, want, werr); gj != wj {
						t.Fatalf("after %d raw points, %v step %d agg %s:\n got %s\nwant %s", level, w, step, agg, gj, wj)
					}
				}
			}
		}
		if g, w := mustJSON(t, st.Series(), nil), mustJSON(t, twin.Series(), nil); g != w {
			t.Fatalf("after %d raw points, catalog:\n got %s\nwant %s", level, g, w)
		}
		for _, d := range []time.Duration{time.Minute, time.Hour, 48 * time.Hour} {
			if g, w := mustJSON(t, st.RecentHistory(d), nil), mustJSON(t, twin.RecentHistory(d), nil); g != w {
				t.Fatalf("after %d raw points, RecentHistory(%s):\n got %s\nwant %s", level, d, g, w)
			}
		}
	}
}

// TestRingBytesGauge pins tsdb.ring_bytes: nothing before the first
// scrape, eight slots per tier once series exist, and exactly
// series × 57,600 B once every tier has filled.
func TestRingBytesGauge(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	gauge := func() float64 { return reg.Snapshot().Gauges[RingBytesMetric] }
	if g := gauge(); g != 0 {
		t.Fatalf("fresh store: %s = %g, want 0", RingBytesMetric, g)
	}
	reg.Gauge("g").Set(1)
	reg.Counter("c").Inc()
	t0 := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 3; i++ {
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
	// A tier's first eight slots: 8 × 16 B raw + 2 × 8 × 40 B bucketed.
	nseries := float64(len(st.Series().Series))
	if g, want := gauge(), nseries*(8*16+2*8*40); g != want {
		t.Fatalf("after 3 scrapes of %g series: %s = %g, want %g", nseries, RingBytesMetric, g, want)
	}
	// Two minutes apart, every scrape opens a point in all three tiers,
	// so the 2m tier's 720 points fill every tier.
	for i := 0; i < longCapacity; i++ {
		st.ScrapeAt(t0.Add(time.Hour + time.Duration(i)*2*time.Minute))
	}
	for _, s := range st.Series().Series {
		for _, tier := range s.Tiers {
			if tier.Points != tier.Capacity {
				t.Fatalf("series %s tier %s holds %d of %d points", s.Name, tier.Name, tier.Points, tier.Capacity)
			}
		}
	}
	nseries = float64(len(st.Series().Series))
	if g, want := gauge(), nseries*57_600; g != want {
		t.Fatalf("full store of %g series: %s = %g, want %g", nseries, RingBytesMetric, g, want)
	}
}
