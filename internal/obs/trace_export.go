package obs

import (
	"encoding/json"
	"io"
	"math"
)

// chromeTraceEvent is one entry of the Chrome trace-event format's JSON
// object form ("X" complete events), as consumed by Perfetto and
// chrome://tracing.
type chromeTraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds, trace-relative
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// WriteChromeTrace exports span records as Chrome trace-event JSON
// (complete "X" events), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Timestamps are rebased to the earliest span so the
// trace starts at t=0; nesting renders by ts/dur containment, and each
// event's args carry the span and parent IDs for cross-referencing with
// the metrics snapshot.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	epoch := int64(math.MaxInt64)
	for _, s := range spans {
		epoch = min(epoch, s.StartUnixUS)
	}
	// Never nil, so a trace without spans renders an empty array.
	events := make([]chromeTraceEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeTraceEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    float64(s.StartUnixUS - epoch),
			Dur:   float64(s.DurUS),
			PID:   1,
			TID:   1,
			Args:  map[string]any{"id": s.ID},
		}
		if s.ParentID != 0 {
			ev.Args["parent_id"] = s.ParentID
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
