package obs

import (
	"math"
	"sync"
	"time"
)

// Tracer assembles spans into a per-run timing tree. Spans opened while
// another span is active become its children; spans opened at top level
// become roots. Every span carries a tracer-unique ID and its parent's ID
// so snapshots can be exported flat (Chrome trace events) as well as
// nested.
//
// The implicit Start nesting is call-stack shaped: open nested spans from
// the sequential pipeline driver. Worker goroutines that want their own
// spans must use Span.Child, which attaches to an explicit parent and
// never touches the shared stack, making it safe to call from any
// goroutine.
// Retention: the tracer keeps at most DefaultSpanLimit spans. When a new
// span would exceed the cap, whole ended root subtrees are dropped
// oldest-first and counted — long-running daemons like `hpcmal serve`
// trace every replay round for the life of the process, and unbounded
// retention was a slow leak. Active (un-ended) spans are never dropped.
type Tracer struct {
	mu      sync.Mutex
	roots   []*Span
	stack   []*Span
	lastID  uint64
	size    int // spans currently retained (all subtrees)
	limit   int // 0 = DefaultSpanLimit; in-package tests set a smaller cap
	dropped int64
	mDrops  *Counter // optional registry mirror, set via AttachMetrics
}

// DefaultSpanLimit is the default cap on retained spans per tracer.
const DefaultSpanLimit = 8192

// SpansDroppedMetric counts spans evicted from a tracer's retention cap
// (mirrored into a registry by AttachMetrics).
const SpansDroppedMetric = "obs.spans_dropped"

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Dropped returns the number of spans evicted so far.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// AttachMetrics mirrors the tracer's eviction count into r as the
// obs.spans_dropped counter.
func (t *Tracer) AttachMetrics(r *Registry) {
	if t == nil || r == nil {
		return
	}
	c := r.Counter(SpansDroppedMetric)
	t.mu.Lock()
	t.mDrops = c
	t.mu.Unlock()
	c.Add(t.Dropped())
}

// evictLocked drops the oldest fully-ended root subtrees until the span
// count fits the limit. Roots still running (or with running children on
// the active stack) are skipped: dropping them would orphan live spans.
func (t *Tracer) evictLocked() {
	limit := t.limit
	if limit == 0 {
		limit = DefaultSpanLimit
	}
	i := 0
	for t.size > limit && i < len(t.roots) {
		if !subtreeEnded(t.roots[i]) {
			i++
			continue
		}
		n := subtreeSize(t.roots[i])
		t.roots = append(t.roots[:i], t.roots[i+1:]...)
		t.size -= n
		t.dropped += int64(n)
		t.mDrops.Add(int64(n))
	}
}

func subtreeEnded(s *Span) bool {
	if !s.ended {
		return false
	}
	for _, c := range s.child {
		if !subtreeEnded(c) {
			return false
		}
	}
	return true
}

func subtreeSize(s *Span) int {
	n := 1
	for _, c := range s.child {
		n += subtreeSize(c)
	}
	return n
}

// Span is one timed region of a run. End it exactly once; End is
// idempotent and nil-safe.
type Span struct {
	name   string
	id     uint64
	parent uint64
	start  time.Time
	dur    time.Duration
	ended  bool
	child  []*Span
	tracer *Tracer
}

// ID returns the span's tracer-unique ID (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a span as a child of the innermost active span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	sp := &Span{name: name, id: t.lastID, start: time.Now(), tracer: t}
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		sp.parent = top.id
		top.child = append(top.child, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	t.size++
	t.evictLocked()
	return sp
}

// Child opens a span as an explicit child of s without consulting or
// joining the tracer's active stack. Unlike Start, Child is safe to call
// from worker goroutines running concurrently with the pipeline driver:
// the parent is named, not inferred, so parallel children can never
// corrupt the nesting.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	sp := &Span{name: name, id: t.lastID, parent: s.id, start: time.Now(), tracer: t}
	s.child = append(s.child, sp)
	t.size++
	t.evictLocked()
	return sp
}

// End closes the span, recording its wall duration, and returns it.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return s.dur
	}
	s.dur = time.Since(s.start)
	s.ended = true
	// Remove s from the active stack wherever it sits, tolerating
	// out-of-order ends. Detached children (Span.Child) are never on the
	// stack, so the loop simply misses.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.evictLocked()
	return s.dur
}

// SpanSnapshot is the frozen form of a span subtree.
type SpanSnapshot struct {
	Name string `json:"name"`
	// ID is the span's tracer-unique ID; ParentID is 0 for roots.
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// StartUnixUS is the span's start time, microseconds since the epoch.
	StartUnixUS int64 `json:"start_us"`
	// WallMS is the span's wall-clock duration in milliseconds. Spans not
	// yet ended report their running duration.
	WallMS   float64        `json:"wall_ms"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot freezes the current span tree.
func (t *Tracer) Snapshot() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapshotSpans(t.roots)
}

func snapshotSpans(spans []*Span) []SpanSnapshot {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		d := s.dur
		if !s.ended {
			d = time.Since(s.start)
		}
		out[i] = SpanSnapshot{
			Name:        s.name,
			ID:          s.id,
			ParentID:    s.parent,
			StartUnixUS: s.start.UnixMicro(),
			WallMS:      roundMS(d),
			Children:    snapshotSpans(s.child),
		}
	}
	return out
}

// Reset discards all recorded spans and the active stack.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots, t.stack, t.lastID, t.size = nil, nil, 0, 0
}

// roundMS converts a duration to milliseconds with microsecond precision,
// keeping snapshot JSON compact.
func roundMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}
