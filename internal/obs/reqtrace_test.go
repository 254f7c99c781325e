package obs

import (
	"testing"
	"time"
)

// endTrace finishes a trace whose root ran [startNS, endNS].
func endTrace(at *ActiveTrace, endNS int64) { at.End(endNS) }

func TestReqTracerHeadSampling(t *testing.T) {
	// Ratio 0: only explicitly-sampled traceparents record.
	rt := NewReqTracer(ReqTracerConfig{})
	if at := rt.Sample(TraceContext{}, "ingest", "acme", 0); at != nil {
		t.Fatal("ratio 0 sampled a request without a traceparent")
	}
	unsampled := TraceContext{TraceHi: 1, TraceLo: 2, Span: 3}
	if at := rt.Sample(unsampled, "ingest", "acme", 0); at != nil {
		t.Fatal("ratio 0 sampled an unsampled traceparent")
	}
	caller := NewTraceContext()
	at := rt.Sample(caller, "ingest", "acme", 0)
	if at == nil {
		t.Fatal("sampled traceparent not recorded")
	}
	// Joining keeps the caller's trace id but mints a fresh span id.
	if at.TraceID() != caller.TraceID() {
		t.Fatalf("joined trace id %s != caller %s", at.TraceID(), caller.TraceID())
	}
	if at.Context().Span == caller.Span || at.Context().Span == 0 {
		t.Fatalf("joined span id %x not fresh (caller %x)", at.Context().Span, caller.Span)
	}
	endTrace(at, int64(time.Millisecond))
	snap, ok := rt.Get(caller.TraceID())
	if !ok {
		t.Fatal("committed trace not retained")
	}
	// The caller's span becomes the parent, so the two sides join.
	if snap.ParentSpanID == "" {
		t.Fatal("joined trace lost its parent span id")
	}

	// Ratio 1: every request records a fresh root.
	all := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	for i := 0; i < 32; i++ {
		if all.Sample(TraceContext{}, "ingest", "acme", 0) == nil {
			t.Fatal("ratio 1 skipped a request")
		}
	}
}

func TestReqTracerTailKeepRules(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1, SlowThreshold: 10 * time.Millisecond})

	fast := rt.Sample(TraceContext{}, "ingest", "a", 0)
	endTrace(fast, int64(time.Millisecond))

	slow := rt.Sample(TraceContext{}, "ingest", "b", 0)
	endTrace(slow, int64(50*time.Millisecond))

	errored := rt.Sample(TraceContext{}, "ingest", "c", 0)
	errored.SetError("queue full")
	endTrace(errored, int64(time.Millisecond))

	alarm := rt.Sample(TraceContext{}, "ingest", "d", 0)
	alarm.Keep("alarm")
	alarm.SetError("also failed") // explicit keep wins over the error rule
	endTrace(alarm, int64(time.Millisecond))

	want := map[string]string{
		fast.TraceID():    "",
		slow.TraceID():    "slow",
		errored.TraceID(): "error",
		alarm.TraceID():   "alarm",
	}
	for id, reason := range want {
		snap, ok := rt.Get(id)
		if !ok {
			t.Fatalf("trace %s not retained", id)
		}
		if snap.KeepReason != reason {
			t.Errorf("trace %s keep reason = %q, want %q", id, snap.KeepReason, reason)
		}
	}
	if snap, ok := rt.LastKept("alarm"); !ok || snap.TraceID != alarm.TraceID() {
		t.Fatalf("LastKept(alarm) = %+v, %v", snap, ok)
	}
	if _, ok := rt.LastKept(""); !ok {
		t.Fatal("LastKept(any) found nothing despite three kept traces")
	}

	// A negative threshold disables the slow rule entirely.
	noSlow := NewReqTracer(ReqTracerConfig{HeadRatio: 1, SlowThreshold: -1})
	at := noSlow.Sample(TraceContext{}, "ingest", "a", 0)
	endTrace(at, int64(time.Hour))
	if snap, _ := noSlow.Get(at.TraceID()); snap.KeepReason != "" {
		t.Fatalf("disabled slow rule still kept: %q", snap.KeepReason)
	}
}

func TestReqTracerPendingProtocol(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
	at.AddPending(3)
	at.End(int64(time.Millisecond)) // handler returned; verdicts still owed
	if _, ok := rt.Get(at.TraceID()); ok {
		t.Fatal("trace committed with pending windows")
	}
	at.FinishPending(2, int64(2*time.Millisecond))
	if _, ok := rt.Get(at.TraceID()); ok {
		t.Fatal("trace committed with one window still pending")
	}
	at.FinishPending(1, int64(200*time.Millisecond))
	snap, ok := rt.Get(at.TraceID())
	if !ok {
		t.Fatal("trace did not commit after the last verdict")
	}
	// Duration extends to the last verdict, not the HTTP return.
	if snap.DurMS < 199 {
		t.Fatalf("DurMS = %v, want >= the last verdict at 200ms", snap.DurMS)
	}
	if snap.KeepReason != "slow" {
		t.Fatalf("keep reason = %q, want slow (default 100ms threshold)", snap.KeepReason)
	}
}

func TestReqTracerEviction(t *testing.T) {
	reg := NewRegistry()
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1, Registry: reg})
	rt.ring = NewRing[ReqTraceSnapshot](4, rt.maxBytes)
	var keptID string
	for i := 0; i < 12; i++ {
		at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
		if i == 0 {
			at.Keep("alarm")
			keptID = at.TraceID()
		}
		at.AddSpan("stage", 0, int64(time.Millisecond))
		endTrace(at, int64(time.Millisecond))
	}
	st := rt.Stats()
	if st.Traces > 4 {
		t.Fatalf("ring holds %d traces, cap 4", st.Traces)
	}
	if st.Evicted != 8 {
		t.Fatalf("evicted = %d, want 8", st.Evicted)
	}
	if st.Started != 12 || st.Retained != 12 {
		t.Fatalf("stats = %+v", st)
	}
	// The tail-kept trace survives while unprotected newer ones evict.
	if _, ok := rt.Get(keptID); !ok {
		t.Fatal("tail-kept trace was evicted before unkept ones")
	}
	if got := reg.Snapshot().Counters[ReqTraceEvictedMetric]; got != 8 {
		t.Fatalf("%s = %v, want 8", ReqTraceEvictedMetric, got)
	}

	// Byte budget alone also bounds the ring.
	small := NewReqTracer(ReqTracerConfig{HeadRatio: 1, MaxBytes: 2048})
	for i := 0; i < 256; i++ {
		at := small.Sample(TraceContext{}, "ingest", "acme", 0)
		for j := 0; j < 8; j++ {
			at.AddSpan("stage", 0, 1, ReqAttr{Key: "windows", Value: 1})
		}
		endTrace(at, 1)
	}
	if st := small.Stats(); st.Bytes > st.MaxBytes || st.Evicted == 0 {
		t.Fatalf("byte budget not enforced: %+v", st)
	}
}

// TestEstimateTraceBytes pins the ring-budget charge of a retained trace:
// a 144-byte snapshot header, 72 bytes per span and 24 per attribute,
// each struct's unsafe.Sizeof on a 64-bit platform, plus every string's
// bytes.
func TestEstimateTraceBytes(t *testing.T) {
	span := func(name string, keys ...string) SpanRecord {
		sp := SpanRecord{Name: name}
		for _, k := range keys {
			sp.Attrs = append(sp.Attrs, ReqAttr{Key: k, Value: 1})
		}
		return sp
	}
	cases := []struct {
		name string
		snap ReqTraceSnapshot
		want int64
	}{
		{"empty", ReqTraceSnapshot{}, 144},
		{"strings", ReqTraceSnapshot{TraceID: "0af7651916cd43dd8448eb211c80319c",
			ParentSpanID: "b7ad6b7169203331", Name: "ingest", Tenant: "acme",
			Error: "boom", KeepReason: "error"}, 144 + 32 + 16 + 6 + 4 + 4 + 5},
		{"span with 0 attrs", ReqTraceSnapshot{Spans: []SpanRecord{span("span")}}, 144 + 72 + 4},
		{"span with 1 attr", ReqTraceSnapshot{Spans: []SpanRecord{span("span", "k")}}, 144 + 72 + 4 + 24 + 1},
		{"span with 2 attrs", ReqTraceSnapshot{Spans: []SpanRecord{span("span", "k", "kk")}}, 144 + 72 + 4 + 2*24 + 3},
		{"span with 3 attrs", ReqTraceSnapshot{Spans: []SpanRecord{span("span", "k", "kk", "kkk")}}, 144 + 72 + 4 + 3*24 + 6},
		// The five ingest stages carry 1, 3, 2, 2 and 1 attributes:
		// 720 bytes of structs, where 160 + 5*56 + 9*32 = 728 were charged.
		{"ingest stages", ReqTraceSnapshot{Spans: []SpanRecord{
			span("", ""), span("", "", "", ""), span("", "", ""), span("", "", ""), span("", ""),
		}}, 720},
	}
	for _, c := range cases {
		if got := estimateTraceBytes(&c.snap); got != c.want {
			t.Errorf("%s: estimateTraceBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestReqTracerRetainsExactSpans: a committed trace holds its spans in
// an exact-length slice, so the ring's length-based charge counts every
// span slot it keeps. Five spans, as an ingest trace records, would
// otherwise keep the eight slots append grew.
func TestReqTracerRetainsExactSpans(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
	for i := 0; i < 5; i++ {
		at.AddSpan("stage", int64(i), int64(i+1), ReqAttr{Key: "k", Value: float64(i)})
	}
	endTrace(at, 5)
	snap, ok := rt.Get(at.TraceID())
	if !ok {
		t.Fatal("committed trace not retained")
	}
	if len(snap.Spans) != 5 || cap(snap.Spans) != len(snap.Spans) {
		t.Fatalf("retained spans have len %d cap %d, want 5 and 5", len(snap.Spans), cap(snap.Spans))
	}
	for i, sp := range snap.Spans {
		if sp.Name != "stage" || sp.StartUnixUS != 0 || len(sp.Attrs) != 1 || sp.Attrs[0].Value != float64(i) {
			t.Fatalf("span %d = %+v", i, sp)
		}
	}
}

// TestReqTracerNewestUnkeptLands: with every retained trace tail-kept,
// an unkept trace that commits over the bound still lands, so the
// trace_id its receipt returned resolves, and the oldest kept trace goes.
func TestReqTracerNewestUnkeptLands(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	var oldest string
	for i := 0; i < maxTraces; i++ {
		at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
		at.Keep("alarm")
		if i == 0 {
			oldest = at.TraceID()
		}
		endTrace(at, 1)
	}
	at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
	endTrace(at, 1)
	if _, ok := rt.Get(at.TraceID()); !ok {
		t.Fatal("the newest unkept trace was evicted as it committed")
	}
	if _, ok := rt.Get(oldest); ok {
		t.Fatal("the oldest kept trace survived a commit over the bound")
	}
	if st := rt.Stats(); st.Traces != maxTraces || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want %d traces and 1 eviction", st, maxTraces)
	}
}

func TestReqTracerSpanCapAndList(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	rt.maxSpans = 4
	at := rt.Sample(TraceContext{}, "ingest", "acme", 0)
	for i := 0; i < 10; i++ {
		at.AddSpan("stage", 0, 1)
	}
	at.SetError("boom")
	endTrace(at, int64(time.Millisecond))
	snap, _ := rt.Get(at.TraceID())
	if len(snap.Spans) != 4 || snap.DroppedSpans != 6 {
		t.Fatalf("spans = %d dropped = %d, want 4/6", len(snap.Spans), snap.DroppedSpans)
	}

	other := rt.Sample(TraceContext{}, "replay", "beta", 0)
	endTrace(other, int64(time.Second))

	if l := rt.List(ReqTraceFilter{Tenant: "acme"}); len(l) != 1 || l[0].Tenant != "acme" {
		t.Fatalf("tenant filter: %+v", l)
	}
	if l := rt.List(ReqTraceFilter{ErrorOnly: true}); len(l) != 1 || l[0].Error == "" {
		t.Fatalf("error filter: %+v", l)
	}
	if l := rt.List(ReqTraceFilter{MinDurMS: 500}); len(l) != 1 || l[0].Tenant != "beta" {
		t.Fatalf("duration filter: %+v", l)
	}
	if l := rt.List(ReqTraceFilter{Limit: 1}); len(l) != 1 || l[0].Tenant != "beta" {
		t.Fatalf("limit should keep the newest: %+v", l)
	}
}

// TestReqTracerListSizedForLimit: a limited List of a full ring sizes
// its result for the limit, not for every retained trace, and a List
// that matches nothing is empty but not nil, so it renders as [].
func TestReqTracerListSizedForLimit(t *testing.T) {
	rt := NewReqTracer(ReqTracerConfig{HeadRatio: 1})
	for i := 0; i < maxTraces; i++ {
		endTrace(rt.Sample(TraceContext{}, "ingest", "acme", 0), 1)
	}
	if st := rt.Stats(); st.Traces != maxTraces {
		t.Fatalf("ring holds %d traces, want %d", st.Traces, maxTraces)
	}
	if l := rt.List(ReqTraceFilter{Limit: 12}); len(l) != 12 || cap(l) > 12 {
		t.Fatalf("List(Limit: 12) has len %d cap %d, want 12 and at most 12", len(l), cap(l))
	}
	if l := rt.List(ReqTraceFilter{Tenant: "nobody", Limit: 12}); l == nil || len(l) != 0 {
		t.Fatalf("a List that matches nothing = %#v, want empty and non-nil", l)
	}
}

// TestReqTracerNilSafe pins the contract the ingest hot path relies on:
// a nil tracer and a nil active trace absorb every call without
// allocating or panicking.
func TestReqTracerNilSafe(t *testing.T) {
	var rt *ReqTracer
	at := rt.Sample(NewTraceContext(), "ingest", "acme", 0)
	if at != nil {
		t.Fatal("nil tracer sampled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		at.AddSpan("x", 0, 1)
		at.AddPending(1)
		at.FinishPending(1, 1)
		at.SetError("x")
		at.Keep("x")
		at.End(1)
		_ = at.TraceID()
		_ = at.Context()
	})
	if allocs != 0 {
		t.Fatalf("nil ActiveTrace allocated %v per run", allocs)
	}
	if _, ok := rt.Get("x"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if rt.List(ReqTraceFilter{}) != nil || rt.Stats() != (ReqTraceStats{}) {
		t.Fatal("nil tracer returned data")
	}
}
