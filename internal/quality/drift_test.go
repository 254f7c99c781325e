package quality

import (
	"math"
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
