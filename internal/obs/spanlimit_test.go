package obs

import "testing"

func flatCount(spans []SpanSnapshot) int {
	n := 0
	for _, s := range spans {
		n += 1 + flatCount(s.Children)
	}
	return n
}

// TestTracerSpanLimit pins the retention cap on the span tracer: a
// long-lived daemon can no longer grow the retained slice without
// bound — the oldest fully-ended root subtrees are evicted and counted.
func TestTracerSpanLimit(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	tr.AttachMetrics(reg)

	// A live root subtree must survive any cap, even one smaller than
	// the subtree itself: evicting it would orphan running spans. The
	// caps here stand in for DefaultSpanLimit so a short test reaches it.
	tr.limit = 1
	live := tr.Start("live")
	liveChild := live.Child("child") // 2 spans over a cap of 1: eviction runs
	if tr.Dropped() != 0 {
		t.Fatalf("un-ended root evicted (%d spans dropped)", tr.Dropped())
	}
	if len(tr.Snapshot()) != 1 || tr.Snapshot()[0].Name != "live" {
		t.Fatalf("live root missing from snapshot: %+v", tr.Snapshot())
	}

	// Once ended, it is ordinary history: driver-style rounds pile up
	// ended roots and the oldest are dropped to hold the cap.
	liveChild.End()
	live.End()
	tr.limit = 8
	for i := 0; i < 20; i++ {
		sp := tr.Start("burst")
		sp.Child("leaf").End()
		sp.End()
	}
	snap := tr.Snapshot()
	if n := flatCount(snap); n > 8 {
		t.Fatalf("retained %d spans, cap 8", n)
	}
	for _, s := range snap {
		if s.Name == "live" {
			t.Fatal("oldest ended root survived eviction pressure")
		}
	}
	if tr.Dropped() == 0 {
		t.Fatal("no spans counted as dropped")
	}
	if got := reg.Snapshot().Counters[SpansDroppedMetric]; got != tr.Dropped() {
		t.Fatalf("%s = %d, tracer reports %d", SpansDroppedMetric, got, tr.Dropped())
	}
}
