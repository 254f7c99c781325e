package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// trainRows builds a simple two-feature training matrix: feature 0
// uniform over [0,100), feature 1 constant.
func trainRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i % 100), 42}
	}
	return rows
}

func TestCaptureBaseline(t *testing.T) {
	b, err := CaptureBaseline([]string{"cycles", "instructions"}, trainRows(200), 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bins != 10 || b.Rows != 200 || len(b.Features) != 2 {
		t.Fatalf("baseline shape = %+v", b)
	}
	f0 := b.Features[0]
	if f0.Name != "cycles" || f0.Min != 0 || f0.Max != 99 {
		t.Fatalf("feature 0 = %+v", f0)
	}
	if math.Abs(f0.Mean-49.5) > 1e-9 {
		t.Errorf("mean = %v, want 49.5", f0.Mean)
	}
	var total int64
	for _, c := range f0.Counts {
		total += c
	}
	if total != 200 {
		t.Errorf("histogram mass = %d, want 200", total)
	}
	// Constant feature gets a degenerate-range guard: unit-width span.
	f1 := b.Features[1]
	if f1.Std != 0 || f1.Edges[len(f1.Edges)-1] != 43 {
		t.Errorf("constant feature = %+v", f1)
	}
	if f1.Counts[0] != 200 {
		t.Errorf("constant feature mass = %v", f1.Counts)
	}
}

func TestCaptureBaselineErrors(t *testing.T) {
	if _, err := CaptureBaseline([]string{"a"}, nil, 8); err == nil {
		t.Error("accepted empty training set")
	}
	if _, err := CaptureBaseline(nil, trainRows(5), 8); err == nil {
		t.Error("accepted empty names")
	}
	if _, err := CaptureBaseline([]string{"a", "b", "c"}, trainRows(5), 8); err == nil {
		t.Error("accepted row/name width mismatch")
	}
}

func TestBaselineJSONRoundTrip(t *testing.T) {
	b, err := CaptureBaseline([]string{"cycles"}, trainRowsNarrow(50), 8)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := BaselineFromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 50 || len(got.Features) != 1 || got.Features[0].Name != "cycles" {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := BaselineFromJSON(nil); err == nil {
		t.Error("accepted empty raw baseline")
	}
	if _, err := BaselineFromJSON([]byte(`{"bins":4}`)); err == nil {
		t.Error("accepted featureless baseline")
	}
	if _, err := BaselineFromJSON([]byte(`{broken`)); err == nil {
		t.Error("accepted malformed JSON")
	}
}

func TestDriftDetectorStable(t *testing.T) {
	b, _ := CaptureBaseline([]string{"cycles", "instructions"}, trainRows(200), 10)
	d, err := NewDriftDetector(b, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	if err != nil {
		t.Fatal(err)
	}
	// Live traffic drawn from the training distribution: PSI stays low.
	for _, row := range trainRows(200) {
		d.Observe(row)
	}
	d.Advance()
	snap := d.Snapshot()
	if snap.WindowObserved != 200 || snap.Drifting != 0 {
		t.Fatalf("stable traffic: window %d drifting %d", snap.WindowObserved, snap.Drifting)
	}
	if snap.Features[0].PSI > 0.01 {
		t.Errorf("in-distribution PSI = %v, want ~0", snap.Features[0].PSI)
	}
	if math.Abs(snap.Features[0].LiveMean-49.5) > 1e-9 {
		t.Errorf("live mean = %v", snap.Features[0].LiveMean)
	}
}

func TestDriftDetectorDetectsShift(t *testing.T) {
	b, _ := CaptureBaseline([]string{"cycles"}, func() [][]float64 {
		rows := make([][]float64, 200)
		for i := range rows {
			rows[i] = []float64{float64(i % 100)}
		}
		return rows
	}(), 10)
	r := obs.NewRegistry()
	bus := obs.NewBus()
	sub := bus.Subscribe(8)
	defer sub.Close()
	d, err := NewDriftDetector(b, DriftConfig{Registry: r, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	// Live traffic shifted far above the training range clamps into the
	// top bin: PSI must blow past the threshold and KS approach 1.
	for i := 0; i < 100; i++ {
		d.Observe([]float64{500})
	}
	d.Advance()
	snap := d.Snapshot()
	if snap.Drifting != 1 || !snap.Features[0].Drifting {
		t.Fatalf("shifted traffic not flagged: %+v", snap.Features[0])
	}
	if snap.Features[0].PSI < 0.25 {
		t.Errorf("PSI = %v, want >= 0.25", snap.Features[0].PSI)
	}
	if snap.Features[0].KS < 0.8 {
		t.Errorf("KS = %v, want near 1", snap.Features[0].KS)
	}
	if got := r.Gauge(DriftingMetric).Value(); got != 1 {
		t.Errorf("drifting gauge = %v, want 1", got)
	}
	if got := r.Gauge("drift.psi.cycles").Value(); got < 0.25 {
		t.Errorf("psi gauge = %v", got)
	}
	select {
	case e := <-sub.Events():
		if e.Type != EventDrift {
			t.Fatalf("event = %+v, want %s", e, EventDrift)
		}
	case <-time.After(time.Second):
		t.Fatal("no drift event published")
	}

	// Recovery: rotate the shifted epochs out with in-distribution traffic.
	for round := 0; round < epochs; round++ {
		for i := 0; i < 100; i++ {
			d.Observe([]float64{float64(i)})
		}
		d.Advance()
	}
	if snap := d.Snapshot(); snap.Drifting != 0 {
		t.Fatalf("drift did not resolve: %+v", snap.Features[0])
	}
	var resolved bool
	deadline := time.After(time.Second)
	for !resolved {
		select {
		case e := <-sub.Events():
			if e.Type == EventDriftResolved {
				resolved = true
			}
		case <-deadline:
			t.Fatal("no drift_resolved event published")
		}
	}
}

func TestDriftDetectorIgnoresBadVectors(t *testing.T) {
	b, _ := CaptureBaseline([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}}, 4)
	d, err := NewDriftDetector(b, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	if err != nil {
		t.Fatal(err)
	}
	d.Observe([]float64{1}) // wrong arity
	d.Observe(nil)          // nil
	var nild *DriftDetector
	nild.Observe([]float64{1, 2}) // nil receiver
	if snap := d.Snapshot(); snap.WindowObserved != 0 {
		t.Fatalf("bad vectors counted: %d", snap.WindowObserved)
	}
	if _, err := NewDriftDetector(nil, DriftConfig{}); err == nil {
		t.Error("accepted nil baseline")
	}
}

// TestDriftDeterministicConcurrent pins the same commutativity contract
// as the scoreboard: concurrent observers produce identical snapshots.
func TestDriftDeterministicConcurrent(t *testing.T) {
	b, _ := CaptureBaseline([]string{"cycles"}, trainRowsNarrow(100), 8)
	serial, _ := NewDriftDetector(b, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	for i := 0; i < 400; i++ {
		serial.Observe([]float64{float64(i % 150)})
	}
	concurrent, _ := NewDriftDetector(b, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 400; i += 8 {
				concurrent.Observe([]float64{float64(i % 150)})
			}
		}(w)
	}
	wg.Wait()
	a, c := serial.Snapshot(), concurrent.Snapshot()
	if a.Features[0].PSI != c.Features[0].PSI || a.Features[0].KS != c.Features[0].KS ||
		a.Features[0].LiveMean != c.Features[0].LiveMean {
		t.Fatalf("serial %+v != concurrent %+v", a.Features[0], c.Features[0])
	}
}

func trainRowsNarrow(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i % 100)}
	}
	return rows
}

// TestNewDriftDetectorRejectsMalformedBaseline holds the detector to
// the baseline shape its sketch indexes. The JSON case is a baseline
// BaselineFromJSON accepts whose fourth-and-later edges used to index
// past the epoch's counts and panic the first Observe.
func TestNewDriftDetectorRejectsMalformedBaseline(t *testing.T) {
	valid := func() *Baseline {
		b, err := CaptureBaseline([]string{"a", "b"}, [][]float64{{0, 1}, {4, 9}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := NewDriftDetector(valid(), DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()}); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	tooManyEdges, err := BaselineFromJSON([]byte(`{"bins":4,"rows":2,"features":[{"name":"e0","count":2,` +
		`"edges":[0,1,2,3,4,5,6,7,8],"counts":[1,1,0,0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base *Baseline
	}{
		{"json: 9 edges for 4 bins", tooManyEdges},
		{"zero bins", func() *Baseline { b := valid(); b.Bins = 0; return b }()},
		{"too few edges", func() *Baseline { b := valid(); b.Features[1].Edges = b.Features[1].Edges[:4]; return b }()},
		{"too few counts", func() *Baseline { b := valid(); b.Features[0].Counts = b.Features[0].Counts[:3]; return b }()},
		{"too many counts", func() *Baseline {
			b := valid()
			b.Features[0].Counts = append(b.Features[0].Counts, 0)
			return b
		}()},
		{"zero count", func() *Baseline { b := valid(); b.Features[1].Count = 0; return b }()},
		{"NaN edge", func() *Baseline { b := valid(); b.Features[0].Edges[2] = math.NaN(); return b }()},
		{"+Inf edge", func() *Baseline { b := valid(); b.Features[0].Edges[4] = math.Inf(1); return b }()},
		{"-Inf edge", func() *Baseline { b := valid(); b.Features[0].Edges[0] = math.Inf(-1); return b }()},
		{"decreasing edges", func() *Baseline { b := valid(); b.Features[1].Edges[2] = 0; return b }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDriftDetector(tc.base, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()}); err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
		})
	}
}

// TestBinIndexMatchesBinFor checks the guess-and-walk lookup against
// binFor, the reference rule, over random sorted edge arrays: equal
// width, uneven, with repeated edges, a single bin, one point, and
// spans too wide or too narrow for float64 to divide.
func TestBinIndexMatchesBinFor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cases [][]float64
	for i := 0; i < 400; i++ {
		bins := 1 + rng.Intn(20)
		lo := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-4))
		width := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-4))
		edges := make([]float64, bins+1)
		for j := range edges {
			switch i % 3 {
			case 0: // CaptureBaseline's equal-width spacing
				edges[j] = lo + width*float64(j)/float64(bins)
			case 1: // uneven
				edges[j] = lo + width*rng.Float64()
			default: // repeated edges
				edges[j] = lo + width*float64(rng.Intn(3))
			}
		}
		sort.Float64s(edges)
		cases = append(cases, edges)
	}
	cases = append(cases,
		[]float64{3, 3, 3, 3},
		[]float64{-math.MaxFloat64, 0, math.MaxFloat64},
		[]float64{-math.MaxFloat64, -1, 1, math.MaxFloat64},
		[]float64{0, 5e-324, 1e-323, 1.5e-323},
		[]float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)},
	)
	for _, edges := range cases {
		idx := newBinIndex(edges)
		probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0,
			math.Copysign(0, -1)}
		for _, e := range edges {
			probes = append(probes, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
		}
		span := edges[len(edges)-1] - edges[0]
		for k := 0; k < 50; k++ {
			probes = append(probes, edges[0]+span*(1.2*rng.Float64()-0.1))
		}
		for _, v := range probes {
			if got, want := idx.bin(v), binFor(edges, v); got != want {
				t.Fatalf("edges %v value %v: bin %d, binFor %d", edges, v, got, want)
			}
		}
	}
}

// TestObserveChunkMatchesObserve feeds one stream through per-window
// Observe and through ObserveChunk in uneven chunks, rotating both at
// the same windows, and requires identical counts, sum and
// sum-of-squares bits, and snapshots. The stream carries NaN, ±Inf,
// ±MaxFloat64, and every edge with its neighbours.
func TestObserveChunkMatchesObserve(t *testing.T) {
	names := []string{"a", "b", "c"}
	var train [][]float64
	for i := 0; i < 64; i++ {
		train = append(train, []float64{float64(i % 17), float64(i*i) / 7, -float64(i % 5)})
	}
	base, err := CaptureBaseline(names, train, 16)
	if err != nil {
		t.Fatal(err)
	}
	var specials, stream [][]float64
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
		specials = append(specials, []float64{v, v, v}, []float64{1, v, 2})
	}
	down := func(e float64) float64 { return math.Nextafter(e, math.Inf(-1)) }
	up := func(e float64) float64 { return math.Nextafter(e, math.Inf(1)) }
	exact := func(e float64) float64 { return e }
	for b := 0; b <= base.Bins; b++ {
		for _, at := range []func(float64) float64{down, exact, up} {
			r := make([]float64, len(names))
			for f, fb := range base.Features {
				r[f] = at(fb.Edges[b])
			}
			stream = append(stream, r)
		}
	}
	stream = append(specials, stream...)
	for i := 0; len(stream) < 1200; i++ {
		stream = append(stream, []float64{float64(i%23) - 3, float64(i%11) * 9.5, -float64(i % 7)})
	}
	stream = append(stream, []float64{1, 2}) // wrong arity: skipped by both

	rotateAt := map[int]bool{}
	for i := 90; i < len(stream); i += 97 {
		rotateAt[i] = true
	}
	chunks := []int{1, 7, 300, 3, 64, 2, 129}

	newDet := func() *DriftDetector {
		d, err := NewDriftDetector(base, DriftConfig{Registry: obs.NewRegistry(), Bus: obs.NewBus()})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	perWindow, chunked := newDet(), newDet()
	compare := func(at int) {
		t.Helper()
		for e := range perWindow.counts {
			for f := range perWindow.counts[e] {
				for b, c := range perWindow.counts[e][f] {
					if chunked.counts[e][f][b] != c {
						t.Fatalf("window %d epoch %d feature %d bin %d: chunked %d, per-window %d",
							at, e, f, b, chunked.counts[e][f][b], c)
					}
				}
				if math.Float64bits(chunked.sums[e][f]) != math.Float64bits(perWindow.sums[e][f]) ||
					math.Float64bits(chunked.sumSqs[e][f]) != math.Float64bits(perWindow.sumSqs[e][f]) {
					t.Fatalf("window %d epoch %d feature %d: chunked sums (%v, %v), per-window (%v, %v)", at, e, f,
						chunked.sums[e][f], chunked.sumSqs[e][f], perWindow.sums[e][f], perWindow.sumSqs[e][f])
				}
			}
		}
		if a, b := fmt.Sprintf("%+v", perWindow.Snapshot()), fmt.Sprintf("%+v", chunked.Snapshot()); a != b {
			t.Fatalf("window %d: snapshots differ:\n%s\n%s", at, a, b)
		}
	}
	start, k := 0, 0
	for i, x := range stream {
		perWindow.Observe(x)
		if rotateAt[i] || i-start+1 == chunks[k%len(chunks)] || i == len(stream)-1 {
			chunked.ObserveChunk(stream[start : i+1])
			start, k = i+1, k+1
			compare(i)
		}
		if rotateAt[i] {
			perWindow.Advance()
			chunked.Advance()
			compare(i)
		}
	}
	if perWindow.Snapshot().Observed != int64(len(stream)-1) {
		t.Fatalf("observed %d, want %d", perWindow.Snapshot().Observed, len(stream)-1)
	}
	// The non-finite windows have rotated out by now, so the snapshot
	// encodes; its JSON must match byte for byte.
	a, err := json.Marshal(perWindow.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(chunked.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON differs:\n%s\n%s", a, b)
	}
}
