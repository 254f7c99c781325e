package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// rootPrefix names the harness's own spans: one per unit of work (a
// replayed sample, a drained chunk, an experiment). Every other span is
// a call into a layer of the program, named <module>.<Function>.
const rootPrefix = "bench."

// span is one recorded call. parent indexes the same recorder's spans
// (-1 for a root); trace numbers the unit of work the call belongs to.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32
	trace      int32
	items      int64
}

// recorder keeps the spans of one goroutine in memory until the run
// ends. A nil *recorder records nothing, so the untraced path runs the
// very same code with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
	trace int32
}

func all(sets []*recorders) []*recorder {
	var out []*recorder
	for _, rs := range sets {
		out = append(out, rs.all...)
	}
	return out
}

// recorders is the set of per-goroutine recorders of one traced run; they
// share an epoch so their spans line up on one time axis.
type recorders struct {
	epoch time.Time
	all   []*recorder
}

func newRecorders() *recorders { return &recorders{epoch: time.Now()} }

// get returns a fresh recorder for one goroutine (nil on a nil set).
func (rs *recorders) get() *recorder {
	if rs == nil {
		return nil
	}
	r := &recorder{epoch: rs.epoch}
	rs.all = append(rs.all, r)
	return r
}

// begin opens a span as a child of the innermost open span; a span opened
// with nothing open is a root and starts a new unit of work.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	} else {
		r.trace++
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)),
		parent: parent, trace: r.trace})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned, crediting it with items units of
// work (windows, rows, instructions; 0 when the call has no natural unit).
func (r *recorder) end(id int32, items int64) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.epoch))
	s.items = items
	r.stack = r.stack[:len(r.stack)-1]
}

// layerStats is what the spans say about one module.
type layerStats struct {
	selfNS int64
	items  int64
}

// spanSummary aggregates a traced run: self time per span name and per
// module, and the time covered by root spans.
type spanSummary struct {
	byName   map[string]*layerStats
	byModule map[string]*layerStats
	rootNS   int64
	layerNS  int64
	count    int
}

func moduleOf(name string) string {
	m, _, _ := strings.Cut(name, ".")
	return m
}

// summarize computes every span's self time: its duration minus the part
// its children cover. A recorder's spans are single-threaded and
// properly nested, so children never overlap and their durations add.
func (rs *recorders) summarize() spanSummary {
	sum := spanSummary{byName: map[string]*layerStats{}, byModule: map[string]*layerStats{}}
	if rs == nil {
		return sum
	}
	for _, r := range rs.all {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			sum.count++
			dur := s.end - s.start
			if s.parent < 0 {
				sum.rootNS += dur
			}
			if strings.HasPrefix(s.name, rootPrefix) {
				continue
			}
			self := max(dur-child[i], 0)
			sum.layerNS += self
			for _, st := range []*layerStats{statsFor(sum.byName, s.name), statsFor(sum.byModule, moduleOf(s.name))} {
				st.selfNS += self
				st.items += s.items
			}
		}
	}
	return sum
}

func statsFor(m map[string]*layerStats, k string) *layerStats {
	st := m[k]
	if st == nil {
		st = &layerStats{}
		m[k] = st
	}
	return st
}

// coverage is the share of root-span time that layer self time explains:
// what the harness's own bookkeeping between calls does not account for.
func (s spanSummary) coverage() float64 {
	if s.rootNS == 0 {
		return 0
	}
	return float64(s.layerNS) / float64(s.rootNS)
}

// selfFrac is module m's self time as a share of root-span time.
func (s spanSummary) selfFrac(m string) float64 {
	st := s.byModule[m]
	if st == nil || s.rootNS == 0 {
		return 0
	}
	return float64(st.selfNS) / float64(s.rootNS)
}

// selfShare is the named span's self time as a share of all layer self
// time.
func (s spanSummary) selfShare(name string) float64 {
	st := s.byName[name]
	if st == nil || s.layerNS == 0 {
		return 0
	}
	return float64(st.selfNS) / float64(s.layerNS)
}

// rate is the items the named span handled per second of its self time,
// 0 when the run never made that call.
func (s spanSummary) rate(name string) float64 {
	st := s.byName[name]
	if st == nil || st.selfNS == 0 {
		return 0
	}
	return float64(st.items) / (float64(st.selfNS) / 1e9)
}

// writeChrome writes the spans of every set as one Chrome trace-event
// file ("X" complete events, microsecond timestamps, one thread per
// recorder), loadable in chrome://tracing and Perfetto.
func writeChrome(path string, sets ...*recorders) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first, tid := true, 0
	for _, r := range all(sets) {
		tid++
		for _, s := range r.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			name, _ := json.Marshal(s.name)
			fmt.Fprintf(w, `{"name":%s,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"trace":%d,"items":%d}}`,
				name, moduleOf(s.name), tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.trace, s.items)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
