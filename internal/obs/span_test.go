package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	a := tr.Start("a")
	aa := tr.Start("a.a")
	aa.End()
	a.End()
	b := tr.Start("b")
	b.End()
	root.End()
	second := tr.Start("second")
	second.End()

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("roots = %d, want 2", len(snap))
	}
	r := snap[0]
	if r.Name != "root" || len(r.Children) != 2 {
		t.Fatalf("root = %+v", r)
	}
	if r.Children[0].Name != "a" || r.Children[1].Name != "b" {
		t.Errorf("children = %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Name != "a.a" {
		t.Errorf("grandchildren = %+v", r.Children[0].Children)
	}
	if snap[1].Name != "second" {
		t.Errorf("second root = %+v", snap[1])
	}
}

func TestSpanDurationsAndIdempotentEnd(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("timed")
	time.Sleep(2 * time.Millisecond)
	d1 := s.End()
	if d1 < time.Millisecond {
		t.Errorf("duration %v too short", d1)
	}
	if d2 := s.End(); d2 != d1 {
		t.Errorf("second End changed duration: %v != %v", d2, d1)
	}
	snap := tr.Snapshot()
	if snap[0].WallMS <= 0 {
		t.Errorf("snapshot wall_ms = %v", snap[0].WallMS)
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a")
	b := tr.Start("b")
	a.End() // out of order: b still open
	c := tr.Start("c")
	c.End()
	b.End()
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Name != "a" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// c opened while b was the innermost active span.
	if len(snap[0].Children) != 1 || snap[0].Children[0].Name != "b" {
		t.Fatalf("a's children = %+v", snap[0].Children)
	}
	if len(snap[0].Children[0].Children) != 1 || snap[0].Children[0].Children[0].Name != "c" {
		t.Errorf("b's children = %+v", snap[0].Children[0].Children)
	}
}

func TestTracerResetAndNilSafety(t *testing.T) {
	tr := NewTracer()
	tr.Start("x").End()
	tr.Reset()
	if len(tr.Snapshot()) != 0 {
		t.Error("snapshot non-empty after reset")
	}

	var nilTracer *Tracer
	sp := nilTracer.Start("nothing")
	sp.End()
	if nilTracer.Snapshot() != nil {
		t.Error("nil tracer returned spans")
	}
	nilTracer.Reset()
}

func TestUnendedSpanReportsRunningDuration(t *testing.T) {
	tr := NewTracer()
	tr.Start("open")
	time.Sleep(time.Millisecond)
	snap := tr.Snapshot()
	if snap[0].WallMS <= 0 {
		t.Errorf("open span wall_ms = %v, want > 0", snap[0].WallMS)
	}
}

// spanShape renders a snapshot's names, ids, parent ids and child order.
func spanShape(b *strings.Builder, spans []SpanSnapshot) {
	for _, s := range spans {
		fmt.Fprintf(b, "%s#%d^%d(", s.Name, s.ID, s.ParentID)
		spanShape(b, s.Children)
		b.WriteString(")")
	}
}

// preOrder appends a snapshot's spans as "name#id^parent", parents first.
func preOrder(out []string, spans []SpanSnapshot) []string {
	for _, s := range spans {
		out = append(out, fmt.Sprintf("%s#%d^%d", s.Name, s.ID, s.ParentID))
		out = preOrder(out, s.Children)
	}
	return out
}

// TestTracerMatchesReference drives Tracer and the tree tracer it
// replaced (span_ref_test.go) with the same random Start/End sequences
// below the retention cap: nested starts, ends out of order, repeated
// ends, and spans left open. Snapshot must nest exactly as the tree did,
// and Records must list the spans in the tree's pre-order.
func TestTracerMatchesReference(t *testing.T) {
	src := rand.New(rand.NewSource(20))
	names := []string{"experiment.fig13", "dataset.generate", "serve.round", "x"}
	for trial := 0; trial < 300; trial++ {
		got, want := NewTracer(), &refTracer{}
		var gs []*Span
		var ws []*refSpan
		var open []int // indices into gs/ws of spans not yet ended, in start order
		for step, n := 0, src.Intn(120); step < n; step++ {
			switch r := src.Intn(10); {
			case r < 5 || len(open) == 0:
				name := names[src.Intn(len(names))]
				gs, ws = append(gs, got.Start(name)), append(ws, want.Start(name))
				open = append(open, len(gs)-1)
			case r < 9:
				k := len(open) - 1 // the innermost, or any open span
				if src.Intn(3) == 0 {
					k = src.Intn(len(open))
				}
				i := open[k]
				open = append(open[:k], open[k+1:]...)
				gs[i].End()
				ws[i].End()
			default: // end an ended span again
				if i := src.Intn(len(gs)); ws[i].ended {
					gs[i].End()
					ws[i].End()
				}
			}
		}
		var g, w strings.Builder
		spanShape(&g, got.Snapshot())
		spanShape(&w, want.Snapshot())
		if g.String() != w.String() {
			t.Fatalf("trial %d: snapshot\n got %s\nwant %s", trial, g.String(), w.String())
		}
		order := preOrder(nil, want.Snapshot())
		recs := got.Records()
		if len(recs) != len(order) {
			t.Fatalf("trial %d: %d records, reference holds %d spans", trial, len(recs), len(order))
		}
		for i, r := range recs {
			if s := fmt.Sprintf("%s#%d^%d", r.Name, r.ID, r.ParentID); s != order[i] {
				t.Fatalf("trial %d: record %d = %s, reference pre-order has %s", trial, i, s, order[i])
			}
		}
	}
}

// TestTracerConcurrentStartEnd: Start and End from many goroutines at
// once lose no record and reuse no id (run under -race).
func TestTracerConcurrentStartEnd(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Start("task").End()
			}
		}()
	}
	wg.Wait()
	recs := tr.Records()
	if len(recs) != 400 || tr.Dropped() != 0 {
		t.Fatalf("records = %d, dropped = %d, want 400 and 0", len(recs), tr.Dropped())
	}
	for i, r := range recs {
		if r.ID != uint64(i+1) {
			t.Fatalf("record %d has id %d, want %d", i, r.ID, i+1)
		}
	}
	if n := flatCount(tr.Snapshot()); n != 400 {
		t.Fatalf("snapshot holds %d spans, want 400", n)
	}
}
