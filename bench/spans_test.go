package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// spansOf builds a recorder from literal spans, so self times are exact.
func spansOf(spans ...span) *recorders {
	return &recorders{all: []*recorder{{spans: spans}}}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	rs := spansOf(
		span{name: "bench.sample", start: 0, end: 100, parent: -1},
		span{name: "micro.Machine.ExecuteBlock", start: 5, end: 65, parent: 0, items: 2000},
		span{name: "pmu.PMU.Measure", start: 70, end: 90, parent: 0, items: 1},
		span{name: "pmu.Inner", start: 72, end: 80, parent: 2},
	)
	sum := rs.summarize()
	if sum.rootNS != 100 || sum.layerNS != 80 {
		t.Fatalf("root %d ns, layers %d ns; want 100 and 80", sum.rootNS, sum.layerNS)
	}
	if c := sum.coverage(); c != 0.8 {
		t.Errorf("coverage %v, want 0.8", c)
	}
	// Measure's 20 ns minus its child's 8: 12 ns of self time.
	if st := sum.byName["pmu.PMU.Measure"]; st.selfNS != 12 {
		t.Errorf("Measure self %d ns, want 12", st.selfNS)
	}
	if f := sum.selfFrac("pmu"); f != 0.2 {
		t.Errorf("pmu self share %v, want 0.2", f)
	}
	if r := sum.rate("micro.Machine.ExecuteBlock"); math.Abs(r/(2000/60e-9)-1) > 1e-12 {
		t.Errorf("ExecuteBlock rate %v", r)
	}
	if sum.rate("infer.Program.Predict") != 0 || sum.selfFrac("infer") != 0 {
		t.Error("a layer never called must report 0")
	}
}

func TestRecorderNestsAndWritesChrome(t *testing.T) {
	rs := newRecorders()
	rec := rs.get()
	root := rec.begin("bench.chunk")
	sp := rec.begin("infer.Program.Predict")
	rec.end(sp, 512)
	rec.end(root, 512)
	rec.end(rec.begin("bench.chunk"), 0)
	if got := rec.spans[1]; got.parent != 0 || got.trace != 1 || got.items != 512 {
		t.Errorf("child span %+v", got)
	}
	if rec.spans[2].trace != 2 || rec.spans[2].parent != -1 {
		t.Errorf("second root %+v should start trace 2", rec.spans[2])
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x"), 1) // the untraced path records nothing

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChrome(path, rs, spansOf(span{name: "ingest.Service.Enqueue", end: 10, parent: -1})); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[3]
	if last.Ph != "X" || last.Cat != "ingest" || last.Tid != 2 || last.Dur != 0.01 {
		t.Errorf("last event %+v", last)
	}
}
