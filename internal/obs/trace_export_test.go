package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteChromeTrace checks the exported JSON is what Perfetto accepts:
// a traceEvents array of complete "X" events with trace-relative
// microsecond timestamps and span/parent IDs in args.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("experiment.fig13")
	child := tr.Start("dataset.generate")
	worker := tr.Start("fold.train")
	worker.End()
	child.End()
	root.End()

	var b strings.Builder
	if err := WriteChromeTrace(&b, tr.Records()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if len(out.TraceEvents) != 3 || out.DisplayTimeUnit != "ms" {
		t.Fatalf("events = %d, unit = %q", len(out.TraceEvents), out.DisplayTimeUnit)
	}
	byName := map[string]int{}
	for i, ev := range out.TraceEvents {
		if ev.Phase != "X" || ev.PID != 1 || ev.TID != 1 {
			t.Errorf("event %q: ph=%q pid=%d tid=%d", ev.Name, ev.Phase, ev.PID, ev.TID)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q: ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
		byName[ev.Name] = i
	}
	rootEv := out.TraceEvents[byName["experiment.fig13"]]
	childEv := out.TraceEvents[byName["dataset.generate"]]
	workerEv := out.TraceEvents[byName["fold.train"]]
	if rootEv.TS != 0 {
		t.Errorf("root ts = %v, want 0 (rebased)", rootEv.TS)
	}
	if _, hasParent := rootEv.Args["parent_id"]; hasParent {
		t.Error("root event carries a parent_id")
	}
	if childEv.Args["parent_id"] != rootEv.Args["id"] {
		t.Errorf("child parent_id = %v, want root id %v", childEv.Args["parent_id"], rootEv.Args["id"])
	}
	if workerEv.Args["parent_id"] != childEv.Args["id"] {
		t.Errorf("worker parent_id = %v, want child id %v", workerEv.Args["parent_id"], childEv.Args["id"])
	}
}

// TestWriteChromeTraceEmpty keeps the no-span export a valid document.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents": []`) {
		t.Errorf("empty export = %s", b.String())
	}
}
