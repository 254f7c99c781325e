package obs

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Tracer times a run's stages as spans. Spans opened while another span
// is open become its children; spans opened at top level become roots.
// Every span carries a tracer-unique ID, assigned in start order, and its
// parent's ID, so the tracer stores spans flat (SpanRecord) and nests
// them only when a snapshot asks for the tree.
//
// The implicit Start nesting is call-stack shaped: open nested spans from
// the sequential pipeline driver. Parallel work reports through counters
// and histograms instead, which aggregate in any order.
//
// Retention: a span is stored when it ends, in a ring that keeps at most
// DefaultSpanLimit ended spans; past the cap the oldest ended span is
// evicted and counted — long-running daemons like `hpcmal serve` trace
// every replay round for the life of the process, and unbounded
// retention was a slow leak. Open spans are held on the stack, outside
// the ring, so nothing still running is ever evicted.
type Tracer struct {
	mu     sync.Mutex
	open   []*Span           // open spans in start order
	ended  *Ring[SpanRecord] // ended spans in end order
	lastID uint64
	mDrops *Counter // optional registry mirror, set via AttachMetrics
}

// DefaultSpanLimit is the default cap on retained ended spans per tracer.
const DefaultSpanLimit = 8192

// SpansDroppedMetric counts spans evicted from a tracer's retention cap
// (mirrored into a registry by AttachMetrics).
const SpansDroppedMetric = "obs.spans_dropped"

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{ended: NewRing[SpanRecord](DefaultSpanLimit, 0)}
}

// Dropped returns the number of spans evicted since the last Reset.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ended.Evicted()
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

// Span is one timed region of a run. End it exactly once; End is
// idempotent and nil-safe.
type Span struct {
	rec    SpanRecord // all but DurUS
	start  time.Time
	dur    time.Duration
	ended  bool
	tracer *Tracer
}

// record returns the span's record with duration d.
func (s *Span) record(d time.Duration) SpanRecord {
	r := s.rec
	r.DurUS = d.Round(time.Microsecond).Microseconds()
	return r
}

// Start opens a span as a child of the innermost open span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	now := time.Now()
	sp := &Span{rec: SpanRecord{Name: name, ID: t.lastID, StartUnixUS: now.UnixMicro()}, start: now, tracer: t}
	if n := len(t.open); n > 0 {
		sp.rec.ParentID = t.open[n-1].rec.ID
	}
	t.open = append(t.open, sp)
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
	// Take s off the open stack wherever it sits, tolerating out-of-order
	// ends, and store it. A span opened before a Reset is no longer on
	// the stack and stays discarded.
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = append(t.open[:i], t.open[i+1:]...)
			if n := t.ended.Add(s.record(s.dur), 0, false); n > 0 {
				t.mDrops.Add(int64(n))
			}
			break
		}
	}
	return s.dur
}

// Records returns the retained spans flat, in start order. Spans not yet
// ended report their running duration.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.ended.Items()
	for _, s := range t.open {
		out = append(out, s.record(time.Since(s.start)))
	}
	slices.SortFunc(out, func(a, b SpanRecord) int { return cmp.Compare(a.ID, b.ID) })
	return out
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

// Snapshot nests the retained spans by parent ID, each level in start
// order. A span whose parent is no longer retained becomes a root.
func (t *Tracer) Snapshot() []SpanSnapshot {
	recs := t.Records()
	index := make(map[uint64]int, len(recs))
	children := make([][]int, len(recs))
	var roots []int
	for i, r := range recs {
		index[r.ID] = i
		// A parent starts before its children, so it is indexed already.
		if p, ok := index[r.ParentID]; ok {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	var nest func([]int) []SpanSnapshot
	nest = func(at []int) []SpanSnapshot {
		if len(at) == 0 {
			return nil
		}
		out := make([]SpanSnapshot, len(at))
		for k, i := range at {
			r := recs[i]
			out[k] = SpanSnapshot{
				Name:        r.Name,
				ID:          r.ID,
				ParentID:    r.ParentID,
				StartUnixUS: r.StartUnixUS,
				WallMS:      float64(r.DurUS) / 1000,
				Children:    nest(children[i]),
			}
		}
		return out
	}
	return nest(roots)
}

// Reset discards all recorded spans, the open stack and the drop count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open, t.lastID = nil, 0
	t.ended = NewRing[SpanRecord](t.ended.maxItems, 0)
}
