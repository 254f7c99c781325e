package alert

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseRules(t *testing.T) {
	raw := []byte(`[
		{"name": "f1-low", "metric": "quality.f1", "op": "<", "threshold": 0.8, "for": "30s", "severity": "critical"},
		{"name": "drops", "metric": "obs.events_dropped", "op": ">", "threshold": 100}
	]`)
	rules, err := ParseRules(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Severity != "critical" || time.Duration(rules[0].For) != 30*time.Second {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Severity != "warning" {
		t.Errorf("default severity = %q, want warning", rules[1].Severity)
	}

	// The wrapper form is equivalent.
	wrapped, err := ParseRules([]byte(`{"rules": [{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": 2.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != 1 || time.Duration(wrapped[0].For) != 2500*time.Millisecond {
		t.Fatalf("wrapped = %+v", wrapped)
	}

	// An empty array, bare or wrapped, is a valid empty rule set.
	for _, raw := range []string{`[]`, ` [ ] `, `{"rules": []}`} {
		if rules, err := ParseRules([]byte(raw)); err != nil || len(rules) != 0 {
			t.Errorf("ParseRules(%s) = %+v, %v; want no rules, no error", raw, rules, err)
		}
	}
}

func TestParseRulesErrors(t *testing.T) {
	// want, when set, is a substring the error must contain.
	cases := map[string]struct{ raw, want string }{
		"missing name":   {raw: `[{"metric": "m", "op": ">", "threshold": 1}]`},
		"missing metric": {raw: `[{"name": "a", "op": ">", "threshold": 1}]`},
		"bad op":         {raw: `[{"name": "a", "metric": "m", "op": "~", "threshold": 1}]`},
		"bad duration":   {raw: `[{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": "xyz"}]`},
		"duplicate name": {raw: `[{"name": "a", "metric": "m", "op": ">", "threshold": 1}, {"name": "a", "metric": "m", "op": ">", "threshold": 2}]`},
		"not json":       {raw: `{broken`},
		// Objects that would otherwise parse to zero rules and no error.
		"bare rule object":     {raw: `{"name": "x", "metric": "m", "op": ">"}`, want: `no "rules"`},
		"misspelled rules key": {raw: `{"rule": [{"name": "a", "metric": "m", "op": ">", "threshold": 1}]}`, want: `no "rules"`},
		"null rules":           {raw: `{"rules": null}`, want: `no "rules"`},
		"null file":            {raw: `null`, want: "null"},
		"null file with space": {raw: " null \n", want: "null"},
		// Seconds whose nanoseconds do not fit in int64.
		"for too long":     {raw: `[{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": 1e10}]`, want: "out of range"},
		"for too negative": {raw: `[{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": -1e10}]`, want: "out of range"},
	}
	for name, c := range cases {
		_, err := ParseRules([]byte(c.raw))
		if err == nil {
			t.Errorf("%s: accepted %s", name, c.raw)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

// FuzzParseRules holds ParseRules to its contract for any input: it
// never panics, and a rule set it accepts marshals and parses back to
// the same rules.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		`[{"name": "f1-low", "metric": "quality.f1", "op": "<", "threshold": 0.8, "for": "30s", "severity": "critical", "msg": "check drift"}]`,
		`{"rules": [{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": 2.5}], "version": 2}`,
		`[{"name": "max", "metric": "m:p99", "op": "!=", "threshold": -0, "for": 9.2e9}]`,
		`{"name": "x", "metric": "m", "op": ">"}`,
		`{"rule": []}`,
		`[{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for": 1e10}]`,
		`[]`,
		`null`,
		`{broken`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rules, err := ParseRules(raw)
		if err != nil {
			return
		}
		out, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("accepted rules do not marshal: %v", err)
		}
		back, err := ParseRules(out)
		if err != nil {
			t.Fatalf("marshaled rules %s do not parse back: %v", out, err)
		}
		if !reflect.DeepEqual(back, rules) {
			t.Fatalf("round trip changed the rules:\n got %+v\nwant %+v", back, rules)
		}
	})
}

func TestEngineFireAndResolve(t *testing.T) {
	r := obs.NewRegistry()
	bus := obs.NewBus()
	sub := bus.Subscribe(8)
	defer sub.Close()
	var hooked []RuleStatus
	e := New([]Rule{
		{Name: "fpr-high", Metric: "quality.fpr", Op: ">", Threshold: 0.1,
			For: Duration(2 * time.Second), Severity: "critical", Msg: "check drift"},
	}, WithRegistry(r), WithBus(bus), WithOnFire(func(st RuleStatus) { hooked = append(hooked, st) }))

	now := time.UnixMilli(1_000_000)
	g := r.Gauge("quality.fpr")

	// Condition false: inactive.
	g.Set(0.05)
	e.EvaluateAt(now)
	if st := e.Snapshot().Rules[0]; st.State != StateInactive {
		t.Fatalf("state = %s, want inactive", st.State)
	}

	// Condition true but hold not met: pending, no event.
	g.Set(0.5)
	e.EvaluateAt(now)
	if st := e.Snapshot().Rules[0]; st.State != StatePending {
		t.Fatalf("state = %s, want pending", st.State)
	}

	// Held past "for": firing, event + hook.
	e.EvaluateAt(now.Add(3 * time.Second))
	snap := e.Snapshot()
	if snap.Firing != 1 || snap.Rules[0].State != StateFiring || snap.Rules[0].Fires != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	select {
	case ev := <-sub.Events():
		if ev.Type != EventFiring || !strings.Contains(ev.Msg, "fpr-high") ||
			!strings.Contains(ev.Msg, "critical") || !strings.Contains(ev.Msg, "check drift") {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no firing event")
	}
	if len(hooked) != 1 || hooked[0].Rule.Name != "fpr-high" {
		t.Fatalf("onFire hook = %+v", hooked)
	}
	if got := r.Gauge(FiringMetric).Value(); got != 1 {
		t.Errorf("firing gauge = %v", got)
	}

	// Stays firing without re-firing.
	e.EvaluateAt(now.Add(4 * time.Second))
	if st := e.Snapshot().Rules[0]; st.Fires != 1 {
		t.Fatalf("re-fired: %+v", st)
	}

	// Condition clears: resolved event.
	g.Set(0.01)
	e.EvaluateAt(now.Add(5 * time.Second))
	if st := e.Snapshot().Rules[0]; st.State != StateInactive {
		t.Fatalf("state = %s, want inactive after recovery", st.State)
	}
	select {
	case ev := <-sub.Events():
		if ev.Type != EventResolved {
			t.Fatalf("event = %+v, want resolved", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no resolved event")
	}
	if got := r.Gauge(FiringMetric).Value(); got != 0 {
		t.Errorf("firing gauge after resolve = %v", got)
	}
}

func TestEngineNoData(t *testing.T) {
	r := obs.NewRegistry()
	e := New([]Rule{{Name: "ghost", Metric: "does.not.exist", Op: ">", Threshold: 1}},
		WithRegistry(r), WithBus(obs.NewBus()))
	e.EvaluateAt(time.UnixMilli(0))
	if st := e.Snapshot().Rules[0]; st.State != StateNoData {
		t.Fatalf("state = %s, want no_data", st.State)
	}
}

func TestEngineZeroForFiresImmediately(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("obs.events_dropped").Add(5)
	e := New([]Rule{{Name: "drops", Metric: "obs.events_dropped", Op: ">", Threshold: 0}},
		WithRegistry(r), WithBus(obs.NewBus()))
	e.EvaluateAt(time.UnixMilli(1000))
	if st := e.Snapshot().Rules[0]; st.State != StateFiring || st.Value != 5 {
		t.Fatalf("status = %+v, want immediate firing at 5", st)
	}
}

// TestRuleMetricResolution pins the alert engine's side of the shared
// obs.Snapshot.Lookup contract: histogram rules address aggregates with
// a ":" suffix, and an empty histogram evaluates as 0 (not NaN), so a
// "p99 > threshold" rule stays inactive rather than no_data or poisoned
// before the first observation.
func TestRuleMetricResolution(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 50} {
		h.Observe(v)
	}
	r.Histogram("empty", []float64{1})
	e := New([]Rule{
		{Name: "lat-p99", Metric: "lat:p99", Op: ">", Threshold: 0},
		{Name: "lat-count", Metric: "lat:count", Op: "==", Threshold: 4},
		{Name: "empty-p99", Metric: "empty:p99", Op: ">", Threshold: 0},
		{Name: "empty-mean-zero", Metric: "empty:mean", Op: "==", Threshold: 0},
		{Name: "bad-agg", Metric: "lat:p12345", Op: ">", Threshold: 0},
	}, WithRegistry(r), WithBus(obs.NewBus()))
	e.EvaluateAt(time.UnixMilli(1000))
	got := map[string]RuleStatus{}
	for _, st := range e.Snapshot().Rules {
		got[st.Rule.Name] = st
	}
	if st := got["lat-p99"]; st.State != StateFiring || st.Value <= 0 {
		t.Errorf("lat-p99 = %+v, want firing with positive value", st)
	}
	if st := got["lat-count"]; st.State != StateFiring || st.Value != 4 {
		t.Errorf("lat-count = %+v, want firing at 4", st)
	}
	// Empty histogram: resolved (not no_data), coerced to 0.
	if st := got["empty-p99"]; st.State != StateInactive || st.Value != 0 {
		t.Errorf("empty-p99 = %+v, want inactive at 0", st)
	}
	if st := got["empty-mean-zero"]; st.State != StateFiring {
		t.Errorf("empty-mean-zero = %+v, want firing (0 == 0)", st)
	}
	if st := got["bad-agg"]; st.State != StateNoData {
		t.Errorf("bad-agg = %+v, want no_data", st)
	}
}

func TestEngineRunTicker(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("g").Set(9)
	e := New([]Rule{{Name: "g-high", Metric: "g", Op: ">", Threshold: 1}},
		WithRegistry(r), WithBus(obs.NewBus()))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx, 5*time.Millisecond)
	}()
	deadline := time.After(2 * time.Second)
	for e.Snapshot().Firing == 0 {
		select {
		case <-deadline:
			t.Fatal("ticker never fired the rule")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if got := r.Counter(EvaluationsMetric).Value(); got == 0 {
		t.Error("no evaluations counted")
	}
}

func TestSnapshotSortsFiringFirst(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("hot").Set(10)
	e := New([]Rule{
		{Name: "zzz-quiet", Metric: "hot", Op: "<", Threshold: 0},
		{Name: "aaa-ghost", Metric: "missing", Op: ">", Threshold: 0},
		{Name: "mmm-hot", Metric: "hot", Op: ">", Threshold: 1},
	}, WithRegistry(r), WithBus(obs.NewBus()))
	e.EvaluateAt(time.UnixMilli(1000))
	snap := e.Snapshot()
	if snap.Rules[0].Rule.Name != "mmm-hot" || snap.Rules[0].State != StateFiring {
		t.Fatalf("firing rule not first: %+v", snap.Rules)
	}
	if snap.Rules[1].State != StateNoData || snap.Rules[2].State != StateInactive {
		t.Fatalf("order = %+v", snap.Rules)
	}
}

func TestDurationMarshalRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := back.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %s != %s", time.Duration(back), time.Duration(d))
	}
}
