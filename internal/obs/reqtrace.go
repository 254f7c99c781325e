package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Metric names published by the request tracer.
const (
	// ReqTraceStartedMetric counts traces that passed sampling and began
	// recording spans.
	ReqTraceStartedMetric = "reqtrace.started"
	// ReqTraceRetainedMetric counts completed traces committed to the ring.
	ReqTraceRetainedMetric = "reqtrace.retained"
	// ReqTraceEvictedMetric counts traces dropped from the ring to stay
	// inside the byte/count budget.
	ReqTraceEvictedMetric = "reqtrace.evicted"
	// ReqTraceBytesMetric gauges the ring's current retained byte estimate.
	ReqTraceBytesMetric = "reqtrace.bytes"
)

// ReqAttr is one numeric span attribute (queue depth, batch size, ...).
// Attributes are numeric only so span storage stays compact and the
// waterfall JSON stays schema-free.
type ReqAttr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// SpanRecord is one completed span: a stage of a request trace, or a
// span of the run tracer, which alone sets ID and ParentID (0 for a
// root), so request spans render without them.
type SpanRecord struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// StartUnixUS is the span's start time, microseconds since the epoch.
	StartUnixUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds.
	DurUS int64     `json:"dur_us"`
	Attrs []ReqAttr `json:"attrs,omitempty"`
}

// ReqTraceSnapshot is one completed request trace: the root identity plus
// the flat span waterfall, ordered as recorded.
type ReqTraceSnapshot struct {
	// TraceID is the 128-bit W3C trace id as 32 lowercase hex digits.
	TraceID string `json:"trace_id"`
	// ParentSpanID is the caller's span id (16 hex digits) when the trace
	// was joined from an incoming traceparent header; empty for fresh
	// roots minted by this process.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	Name         string `json:"name"`
	Tenant       string `json:"tenant,omitempty"`
	StartUnixUS  int64  `json:"start_us"`
	// DurMS is the root duration in milliseconds: first span start to the
	// last observed span end (for ingest, the last verdict of the batch).
	DurMS float64 `json:"dur_ms"`
	Error string  `json:"error,omitempty"`
	// KeepReason is why the tail sampler protects this trace from
	// eviction ("slow", "error", "alarm", ...); empty for traces retained
	// only by head sampling, which evict first under memory pressure.
	KeepReason string `json:"keep_reason,omitempty"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// ReqTraceSummary is the list-endpoint view of a retained trace: identity
// and headline numbers without the span payload.
type ReqTraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Name        string  `json:"name"`
	Tenant      string  `json:"tenant,omitempty"`
	StartUnixUS int64   `json:"start_us"`
	DurMS       float64 `json:"dur_ms"`
	Error       string  `json:"error,omitempty"`
	KeepReason  string  `json:"keep_reason,omitempty"`
	Spans       int     `json:"spans"`
}

// ReqTraceFilter selects traces for ReqTracer.List. Zero values match
// everything.
type ReqTraceFilter struct {
	Tenant    string
	MinDurMS  float64
	ErrorOnly bool
	// Limit caps the number of returned summaries (newest first);
	// <= 0 means no cap.
	Limit int
}

// ReqTraceStats summarizes the tracer's lifetime activity and current
// ring occupancy.
type ReqTraceStats struct {
	Started  int64 `json:"started"`
	Retained int64 `json:"retained"`
	Evicted  int64 `json:"evicted"`
	Traces   int   `json:"traces"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// ReqTracerConfig configures sampling and retention. The zero value is
// usable: no head sampling (only explicitly-sampled traceparents record),
// 100 ms slow threshold, 4 MiB ring.
type ReqTracerConfig struct {
	// HeadRatio is the per-request head-sampling probability in [0,1]
	// for requests that arrive without a sampled traceparent.
	HeadRatio float64
	// SlowThreshold marks a completed trace as tail-kept ("slow") when
	// its root duration reaches it. 0 means the 100 ms default; negative
	// disables the slow rule.
	SlowThreshold time.Duration
	// MaxBytes bounds the estimated retained bytes (default 4 MiB).
	MaxBytes int64
	// Registry receives the reqtrace.* metrics when non-nil.
	Registry *Registry
}

// Retention bounds besides the byte budget.
const (
	// maxTraces bounds the retained trace count.
	maxTraces = 1024
	// maxSpans bounds spans per trace; excess spans are counted in
	// DroppedSpans rather than stored.
	maxSpans = 256
)

// ReqTracer records request-scoped traces into a bounded drop-oldest
// ring. Sampling is two-layered: a cheap head decision at request entry
// (explicit W3C sampled flag, else a coin flip) picks which
// requests record spans at all, and tail keep rules — slow, errored, or
// explicitly kept (alarm-coincident) — decide which completed traces the
// ring protects when evicting to stay inside its byte budget.
//
// All methods are nil-safe: a nil *ReqTracer samples nothing, so callers
// thread it unconditionally and the untraced hot path stays branch-cheap
// and allocation-free.
type ReqTracer struct {
	slowNS    int64
	threshold uint64 // head-sample threshold in [0, MaxUint64]
	maxBytes  int64
	// maxSpans holds the package constant; in-package tests shrink it.
	maxSpans int

	mu   sync.Mutex
	ring *Ring[ReqTraceSnapshot] // tail-kept traces pinned

	started atomic.Int64

	cStarted  *Counter
	cRetained *Counter
	cEvicted  *Counter
	gBytes    *Gauge
}

// NewReqTracer builds a tracer from cfg (see ReqTracerConfig for the
// zero-value defaults).
func NewReqTracer(cfg ReqTracerConfig) *ReqTracer {
	rt := &ReqTracer{
		slowNS:    int64(cfg.SlowThreshold),
		threshold: headThreshold(cfg.HeadRatio),
		maxBytes:  cfg.MaxBytes,
		maxSpans:  maxSpans,
	}
	if rt.slowNS == 0 {
		rt.slowNS = int64(100 * time.Millisecond)
	}
	if rt.maxBytes <= 0 {
		rt.maxBytes = 4 << 20
	}
	rt.ring = NewRing[ReqTraceSnapshot](maxTraces, rt.maxBytes)
	if cfg.Registry != nil {
		rt.cStarted = cfg.Registry.Counter(ReqTraceStartedMetric)
		rt.cRetained = cfg.Registry.Counter(ReqTraceRetainedMetric)
		rt.cEvicted = cfg.Registry.Counter(ReqTraceEvictedMetric)
		rt.gBytes = cfg.Registry.Gauge(ReqTraceBytesMetric)
	}
	return rt
}

// headThreshold maps a probability onto the uint64 comparison threshold
// used against the id generator's uniform output.
func headThreshold(ratio float64) uint64 {
	if ratio <= 0 {
		return 0
	}
	if ratio >= 1 {
		return ^uint64(0)
	}
	return uint64(ratio * float64(1<<63) * 2)
}

// Sample makes the head-sampling decision for one incoming request and,
// when it records, opens the root trace. tc is the parsed traceparent
// (zero value when the request carried none): a valid sampled context
// always records and joins the caller's trace id; otherwise the head
// ratio decides on a fresh root. Returns nil when the
// request is not recorded — every ActiveTrace method is nil-safe, so the
// caller threads the pointer through unconditionally.
func (rt *ReqTracer) Sample(tc TraceContext, name, tenant string, startNS int64) *ActiveTrace {
	if rt == nil {
		return nil
	}
	join := tc.Valid()
	record := join && tc.Sampled()
	if !record {
		record = rt.threshold != 0 && nextID() <= rt.threshold
	}
	if !record {
		return nil
	}
	at := &ActiveTrace{tracer: rt, name: name, tenant: tenant, startNS: startNS, endNS: startNS}
	if join {
		at.tc = TraceContext{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
			Span: nextID(), Flags: tc.Flags | FlagSampled}
		at.parent = tc.Span
	} else {
		at.tc = NewTraceContext()
	}
	at.id = at.tc.TraceID()
	rt.started.Add(1)
	rt.cStarted.Inc()
	return at
}

// Get returns the retained trace with the given 32-hex id.
func (rt *ReqTracer) Get(id string) (ReqTraceSnapshot, bool) {
	if rt == nil {
		return ReqTraceSnapshot{}, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Newest(func(s *ReqTraceSnapshot) bool { return s.TraceID == id })
}

// List returns summaries of retained traces matching f, newest first.
func (rt *ReqTracer) List(f ReqTraceFilter) []ReqTraceSummary {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Size for the limit, not the ring: a viewer's ?limit=12 poll of a
	// full ring needs 12 summaries. Never nil, so no match renders [].
	n := rt.ring.Len()
	if f.Limit > 0 && f.Limit < n {
		n = f.Limit
	}
	out := make([]ReqTraceSummary, 0, n)
	for i := rt.ring.Len() - 1; i >= 0; i-- {
		s := rt.ring.At(i)
		if f.Tenant != "" && s.Tenant != f.Tenant {
			continue
		}
		if s.DurMS < f.MinDurMS {
			continue
		}
		if f.ErrorOnly && s.Error == "" {
			continue
		}
		out = append(out, ReqTraceSummary{
			TraceID:     s.TraceID,
			Name:        s.Name,
			Tenant:      s.Tenant,
			StartUnixUS: s.StartUnixUS,
			DurMS:       s.DurMS,
			Error:       s.Error,
			KeepReason:  s.KeepReason,
			Spans:       len(s.Spans),
		})
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// LastKept returns the most recently retained trace whose KeepReason
// matches reason (any tail-kept trace when reason is empty) — the hook
// the flight recorder uses to embed the trace that coincided with an
// alarm in its incident dump.
func (rt *ReqTracer) LastKept(reason string) (ReqTraceSnapshot, bool) {
	if rt == nil {
		return ReqTraceSnapshot{}, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Newest(func(s *ReqTraceSnapshot) bool {
		return s.KeepReason != "" && (reason == "" || s.KeepReason == reason)
	})
}

// Stats reports lifetime counters and current ring occupancy.
func (rt *ReqTracer) Stats() ReqTraceStats {
	if rt == nil {
		return ReqTraceStats{}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return ReqTraceStats{
		Started:  rt.started.Load(),
		Retained: rt.ring.Added(),
		Evicted:  rt.ring.Evicted(),
		Traces:   rt.ring.Len(),
		Bytes:    rt.ring.Bytes(),
		MaxBytes: rt.maxBytes,
	}
}

// retain commits one completed trace to the ring, where tail-kept traces
// are pinned: the oldest unkept trace is evicted first.
func (rt *ReqTracer) retain(snap ReqTraceSnapshot) {
	rt.mu.Lock()
	evicted := rt.ring.Add(snap, estimateTraceBytes(&snap), snap.KeepReason != "")
	bytes := rt.ring.Bytes()
	rt.mu.Unlock()
	rt.cRetained.Inc()
	if evicted > 0 {
		rt.cEvicted.Add(int64(evicted))
	}
	rt.gBytes.Set(float64(bytes))
}

// estimateTraceBytes approximates a snapshot's retained footprint for the
// ring budget: each struct at its unsafe.Sizeof plus string payloads.
func estimateTraceBytes(s *ReqTraceSnapshot) int64 {
	n := int(unsafe.Sizeof(*s)) + len(s.TraceID) + len(s.ParentSpanID) + len(s.Name) +
		len(s.Tenant) + len(s.Error) + len(s.KeepReason)
	for i := range s.Spans {
		sp := &s.Spans[i]
		n += int(unsafe.Sizeof(*sp)) + len(sp.Name)
		for j := range sp.Attrs {
			n += int(unsafe.Sizeof(sp.Attrs[j])) + len(sp.Attrs[j].Key)
		}
	}
	return int64(n)
}

// ActiveTrace is one in-flight request trace. The HTTP layer creates it
// via ReqTracer.Sample, stages append spans as they complete, and the
// trace commits to the ring once both the request handler has released it
// (End) and every enqueued window has reported its verdict
// (FinishPending). All methods are safe for concurrent use from the
// accept and drain goroutines and are nil-safe, so untraced requests pay
// only a nil check.
type ActiveTrace struct {
	tracer *ReqTracer
	tc     TraceContext
	parent uint64
	id     string

	mu           sync.Mutex
	name         string
	tenant       string
	startNS      int64
	endNS        int64 // max span end observed
	pending      int64
	released     bool
	committed    bool
	errMsg       string
	keep         string
	spans        []SpanRecord
	droppedSpans int
}

// Context returns the trace's outgoing context (fresh root span id, same
// trace id as the caller when joined) for response headers.
func (at *ActiveTrace) Context() TraceContext {
	if at == nil {
		return TraceContext{}
	}
	return at.tc
}

// TraceID returns the 32-hex trace id ("" for nil).
func (at *ActiveTrace) TraceID() string {
	if at == nil {
		return ""
	}
	return at.id
}

// AddSpan records one completed stage [startNS, endNS] (unix nanos) with
// optional attributes. Spans past the per-trace cap are counted, not
// stored.
func (at *ActiveTrace) AddSpan(name string, startNS, endNS int64, attrs ...ReqAttr) {
	if at == nil {
		return
	}
	at.mu.Lock()
	if endNS > at.endNS {
		at.endNS = endNS
	}
	if len(at.spans) >= at.tracer.maxSpans {
		at.droppedSpans++
		at.mu.Unlock()
		return
	}
	at.spans = append(at.spans, SpanRecord{
		Name:        name,
		StartUnixUS: startNS / 1e3,
		DurUS:       (endNS - startNS) / 1e3,
		Attrs:       attrs,
	})
	at.mu.Unlock()
}

// SetError marks the trace errored (tail rule: errored traces are kept).
// The first message wins.
func (at *ActiveTrace) SetError(msg string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	if at.errMsg == "" {
		at.errMsg = msg
	}
	at.mu.Unlock()
}

// Keep pins the trace against eviction with the given reason (e.g.
// "alarm" when a verdict inside it tripped the online detector). The
// first reason wins; later slow/error rules do not override it.
func (at *ActiveTrace) Keep(reason string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	if at.keep == "" {
		at.keep = reason
	}
	at.mu.Unlock()
}

// AddPending registers n asynchronous completions (enqueued windows) the
// trace must wait for before committing.
func (at *ActiveTrace) AddPending(n int) {
	if at == nil || n <= 0 {
		return
	}
	at.mu.Lock()
	at.pending += int64(n)
	at.mu.Unlock()
}

// FinishPending reports n completions observed at endNS (unix nanos). The
// trace commits when the handler has released it and the pending count
// reaches zero.
func (at *ActiveTrace) FinishPending(n int, endNS int64) {
	if at == nil || n <= 0 {
		return
	}
	at.mu.Lock()
	at.pending -= int64(n)
	if endNS > at.endNS {
		at.endNS = endNS
	}
	at.commitLocked()
	at.mu.Unlock()
}

// End releases the trace from the request handler at endNS (unix nanos).
// With no pending windows it commits immediately; otherwise the last
// FinishPending commits. The trace's end moves only to a later endNS, so
// End(0) releases without moving it.
func (at *ActiveTrace) End(endNS int64) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.released = true
	if endNS > at.endNS {
		at.endNS = endNS
	}
	at.commitLocked()
	at.mu.Unlock()
}

// roundMS converts a duration to milliseconds with microsecond precision,
// keeping snapshot JSON compact.
func roundMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

// commitLocked freezes and retains the trace once released with nothing
// pending. Caller holds at.mu.
func (at *ActiveTrace) commitLocked() {
	if at.committed || !at.released || at.pending > 0 {
		return
	}
	at.committed = true
	durNS := at.endNS - at.startNS
	keep := at.keep
	if keep == "" && at.errMsg != "" {
		keep = "error"
	}
	if keep == "" && at.tracer.slowNS > 0 && durNS >= at.tracer.slowNS {
		keep = "slow"
	}
	// The ring charges the spans by length, so a retained trace keeps no
	// spare capacity that append grew: five ingest spans would otherwise
	// hold eight slots.
	spans := at.spans
	if cap(spans) > len(spans) {
		spans = make([]SpanRecord, len(at.spans))
		copy(spans, at.spans)
	}
	snap := ReqTraceSnapshot{
		TraceID:      at.id,
		Name:         at.name,
		Tenant:       at.tenant,
		StartUnixUS:  at.startNS / 1e3,
		DurMS:        roundMS(time.Duration(durNS)),
		Error:        at.errMsg,
		KeepReason:   keep,
		DroppedSpans: at.droppedSpans,
		Spans:        spans,
	}
	if at.parent != 0 {
		var b [16]byte
		putHex(b[:], at.parent)
		snap.ParentSpanID = string(b[:])
	}
	at.tracer.retain(snap)
}
