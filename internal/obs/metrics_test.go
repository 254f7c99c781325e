package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}

	// Nil instruments are inert.
	var nc *Counter
	nc.Add(1)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	nh.ObserveN(1, 3)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	// Upper bounds are inclusive: v == bound lands in that bucket.
	for _, v := range []float64{0.5, 1} { // bucket 0 (<=1)
		h.Observe(v)
	}
	h.Observe(1.5) // bucket 1 (<=2)
	h.Observe(4)   // bucket 2 (<=4)
	h.Observe(4.1) // overflow
	s := r.Snapshot().Histograms["lat"]
	wantCounts := []int64{2, 1, 1, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts len %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Min != 0.5 || s.Max != 4.1 {
		t.Errorf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if math.Abs(s.Sum-11.1) > 1e-9 {
		t.Errorf("sum = %v, want 11.1", s.Sum)
	}
}

// TestHistogramRunMatchesReference feeds random runs of equal values to
// ObserveN, interleaved with ObserveExemplar and single Observes, and the
// same values one at a time to the reference per-value observe. Counts,
// count, min, max, exemplars and the bits of the sum must match.
func TestHistogramRunMatchesReference(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1e-4, 0.005, 0.01, 0.0100000001,
		0.25, 1, 2.5, 10, 1e6, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	for seed := int64(1); seed <= 50; seed++ {
		src := rand.New(rand.NewSource(seed))
		got, want := newHistogram(TimeBuckets), newHistogram(TimeBuckets)
		for op := 0; op < 200; op++ {
			v := src.Float64() * 0.2
			if src.Intn(4) == 0 {
				v = values[src.Intn(len(values))]
			}
			switch src.Intn(6) {
			case 0:
				id := fmt.Sprintf("trace-%d", op)
				got.ObserveExemplar(v, id, int64(op))
				refObserveExemplar(want, v, id, int64(op))
			case 1:
				got.Observe(v)
				refObserve(want, v)
			default:
				n := src.Intn(40)
				got.ObserveN(v, n)
				for i := 0; i < n; i++ {
					refObserve(want, v)
				}
			}
		}
		g, w := got.Snapshot(), want.Snapshot()
		if fmt.Sprint(g.Counts) != fmt.Sprint(w.Counts) || g.Count != w.Count ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(w.Max) {
			t.Fatalf("seed %d: run form %+v, per value %+v", seed, g, w)
		}
		if fmt.Sprintf("%+v", g.Exemplars) != fmt.Sprintf("%+v", w.Exemplars) {
			t.Fatalf("seed %d: exemplars %+v, per value %+v", seed, g.Exemplars, w.Exemplars)
		}
	}
	// n <= 0 records nothing, also on an empty histogram.
	h := newHistogram(TimeBuckets)
	h.ObserveN(1, 0)
	h.ObserveN(1, -3)
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("ObserveN with n <= 0 recorded %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4, 8, 16})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v % 16))
	}
	s := r.Snapshot().Histograms["q"]
	if q := s.Quantile(0.5); q < 4 || q > 12 {
		t.Errorf("p50 = %v, want mid-range", q)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Errorf("p0 = %v, want min %v", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("p100 = %v, want max %v", q, s.Max)
	}
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

func TestSnapshotJSONDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	// Register in non-alphabetical order.
	r.Counter("z.last").Add(1)
	r.Counter("a.first").Add(2)
	r.Counter("m.mid").Add(3)
	r.Gauge("g.two").Set(2)
	r.Gauge("g.one").Set(1)
	r.Histogram("h.b", []float64{1}).Observe(0.5)
	r.Histogram("h.a", []float64{1}).Observe(2)

	enc := func() string {
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := enc()
	for i := 0; i < 10; i++ {
		if got := enc(); got != first {
			t.Fatalf("snapshot JSON not stable:\n%s\n%s", first, got)
		}
	}
	// Keys must appear sorted.
	ia, iz := strings.Index(first, "a.first"), strings.Index(first, "z.last")
	if ia < 0 || iz < 0 || ia > iz {
		t.Errorf("counter keys not sorted in %s", first)
	}
}

func TestRegistryResetKeepsInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{1, 2})
	c.Add(7)
	h.Observe(1.5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Error("reset did not zero metrics")
	}
	// The cached pointer still feeds the same registry entry.
	c.Add(2)
	if r.Snapshot().Counters["c"] != 2 {
		t.Error("cached counter detached from registry after Reset")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h", []float64{10, 100}).Observe(float64(j))
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 8000 {
		t.Errorf("counter = %d, want 8000", s.Counters["n"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

func TestWriteRunSnapshotIsValidJSON(t *testing.T) {
	GetCounter("obs.test_counter").Inc()
	sp := StartSpan("obs.test_span")
	StartSpan("obs.test_child").End()
	sp.End()
	var buf bytes.Buffer
	if err := WriteRunSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var rs RunSnapshot
	if err := json.Unmarshal(buf.Bytes(), &rs); err != nil {
		t.Fatalf("run snapshot not valid JSON: %v", err)
	}
	if rs.Counters["obs.test_counter"] < 1 {
		t.Error("counter missing from run snapshot")
	}
	found := false
	for _, s := range rs.Spans {
		if s.Name == "obs.test_span" && len(s.Children) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("span tree missing from run snapshot: %+v", rs.Spans)
	}
}
