package obs

import (
	"fmt"
	"strings"
	"testing"
)

func flatCount(spans []SpanSnapshot) int {
	n := 0
	for _, s := range spans {
		n += 1 + flatCount(s.Children)
	}
	return n
}

func recordNames(recs []SpanRecord) string {
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.Name
	}
	return strings.Join(names, " ")
}

// TestTracerSpanLimit pins the retention cap on the span tracer: a
// long-lived daemon cannot grow the retained spans without bound. Past
// the cap the oldest ended span is evicted and counted, whatever its
// depth, and open spans, which are stored only when they end, survive
// any cap.
func TestTracerSpanLimit(t *testing.T) {
	// A cap of 1 stands in for DefaultSpanLimit so a short test reaches it.
	tr := NewTracer()
	tr.ended = NewRing[SpanRecord](1, 0)
	reg := NewRegistry()
	tr.AttachMetrics(reg)

	live := tr.Start("live")
	child := tr.Start("child")
	for i := 0; i < 5; i++ {
		tr.Start(fmt.Sprintf("leaf%d", i)).End()
	}
	if got := recordNames(tr.Records()); got != "live child leaf4" {
		t.Fatalf("retained %q, want both open spans and the newest ended leaf", got)
	}
	if tr.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", tr.Dropped())
	}
	snap := tr.Snapshot()
	if len(snap) != 1 || len(snap[0].Children) != 1 || len(snap[0].Children[0].Children) != 1 ||
		snap[0].Children[0].Children[0].Name != "leaf4" {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Ended out of order, the root is older than its child and goes
	// first; the child then becomes a root of the snapshot.
	live.End()
	child.End()
	snap = tr.Snapshot()
	if len(snap) != 1 || snap[0].Name != "child" || snap[0].ParentID != live.rec.ID {
		t.Fatalf("snapshot after the root's eviction = %+v", snap)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if got := reg.Snapshot().Counters[SpansDroppedMetric]; got != tr.Dropped() {
		t.Fatalf("%s = %d, tracer reports %d", SpansDroppedMetric, got, tr.Dropped())
	}
}
