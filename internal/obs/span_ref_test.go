package obs

import "time"

// refTracer is the reference model for Tracer's nesting: the run tracer
// as it was written before it stored flat records, with a child-pointer
// tree that Start grows under the innermost open span and a stack that End
// removes a span from wherever it sits. Its retention cap is left out,
// because the differential test stays below the cap. It is slow and
// plainly correct; the test drives it and Tracer with the same Start/End
// sequence and requires the same tree and the same start order.
type refTracer struct {
	roots  []*refSpan
	stack  []*refSpan
	lastID uint64
}

type refSpan struct {
	name   string
	id     uint64
	parent uint64
	start  time.Time
	dur    time.Duration
	ended  bool
	child  []*refSpan
	tracer *refTracer
}

func (t *refTracer) Start(name string) *refSpan {
	t.lastID++
	sp := &refSpan{name: name, id: t.lastID, start: time.Now(), tracer: t}
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		sp.parent = top.id
		top.child = append(top.child, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

func (s *refSpan) End() time.Duration {
	t := s.tracer
	if s.ended {
		return s.dur
	}
	s.dur = time.Since(s.start)
	s.ended = true
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	return s.dur
}

func (t *refTracer) Snapshot() []SpanSnapshot { return refSnapshot(t.roots) }

func refSnapshot(spans []*refSpan) []SpanSnapshot {
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
			Children:    refSnapshot(s.child),
		}
	}
	return out
}
