package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// testStore builds a scraped tsdb over its own registry: one counter
// climbing 10/s and one gauge, 120 one-second scrapes ending at a known
// millisecond timestamp.
func testStore(t *testing.T) (*tsdb.Store, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	st := tsdb.New(tsdb.Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	c := reg.Counter("trace.windows_simulated")
	g := reg.Gauge("quality.f1")
	t0 := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 120; i++ {
		c.Add(10)
		g.Set(0.9)
		st.ScrapeAt(t0.Add(time.Duration(i) * time.Second))
	}
	return st, t0.UnixMilli()
}

// TestHistoricalEndpoints404WithoutStore pins the attach contract: the
// three store-backed routes are 404 until SetStore, live after.
func TestHistoricalEndpoints404WithoutStore(t *testing.T) {
	s, _, _ := testServer(t)
	for _, p := range []string{"/api/v1/series", "/api/v1/query_range?metric=x", "/api/v1/alerts/history"} {
		if code, body, _ := get(t, s.Handler(), p); code != 404 || !strings.Contains(body, "no time-series store") {
			t.Errorf("%s without store = %d %q, want 404", p, code, body)
		}
	}
	st, _ := testStore(t)
	s.SetStore(st)
	if code, _, _ := get(t, s.Handler(), "/api/v1/series"); code != 200 {
		t.Errorf("series after SetStore = %d", code)
	}
}

func TestSeriesEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	st, _ := testStore(t)
	s.SetStore(st)
	code, body, hdr := get(t, s.Handler(), "/api/v1/series")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("series = %d %q", code, hdr.Get("Content-Type"))
	}
	var cat tsdb.Catalog
	if err := json.Unmarshal([]byte(body), &cat); err != nil {
		t.Fatal(err)
	}
	if cat.IntervalMS != 1000 || len(cat.Series) == 0 {
		t.Fatalf("catalog = %+v", cat)
	}
	found := false
	for _, si := range cat.Series {
		if si.Name == "trace.windows_simulated" && si.Kind == tsdb.KindCounter {
			found = true
		}
	}
	if !found {
		t.Errorf("catalog missing trace.windows_simulated counter: %s", body)
	}
}

// TestQueryRangeEndpoint exercises the parameter surface: explicit ms
// bounds, step as a duration, agg selection, and the error mapping
// (unknown metric 404, bad params 400).
func TestQueryRangeEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	st, t0 := testStore(t)
	s.SetStore(st)

	u := "/api/v1/query_range?metric=trace.windows_simulated" +
		"&from=" + itoa(t0) + "&to=" + itoa(t0+119_000) + "&step=15s&agg=rate"
	code, body, _ := get(t, s.Handler(), u)
	if code != 200 {
		t.Fatalf("query_range = %d %q", code, body)
	}
	var res tsdb.QueryResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.StepMS != 15_000 || res.Agg != "rate" || len(res.Points) == 0 {
		t.Fatalf("result = %+v", res)
	}
	// A counter climbing 10 per 1 s scrape rates to ~10/s (checked on an
	// interior bucket — the window's edge buckets are partial).
	mid := res.Points[len(res.Points)/2].V
	if mid < 9 || mid > 11 {
		t.Errorf("rate = %v, want ~10", mid)
	}

	cases := []struct {
		path string
		code int
	}{
		{"/api/v1/query_range", 400},                                      // missing metric
		{"/api/v1/query_range?metric=no.such.metric", 404},                // unknown metric
		{"/api/v1/query_range?metric=quality.f1&agg=median", 400},         // bad agg
		{"/api/v1/query_range?metric=quality.f1&from=xyz", 400},           // bad time
		{"/api/v1/query_range?metric=quality.f1&step=fast", 400},          // bad step
		{"/api/v1/query_range?metric=quality.f1&from=now&to=now-1m", 400}, // from > to
		{"/api/v1/query_range?metric=quality.f1&from=now-5m&to=now", 200}, // relative times
		{"/api/v1/query_range?metric=quality.f1&from=" + itoa(t0), 200},   // default to=now
	}
	for _, c := range cases {
		if code, body, _ := get(t, s.Handler(), c.path); code != c.code {
			t.Errorf("%s = %d %q, want %d", c.path, code, body, c.code)
		}
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestQueryRangeRejectsUnrepresentableNumbers: a time or step that is
// not finite, or whose milliseconds do not fit in int64, answers 400
// with the error envelope instead of a clamped or defaulted range.
func TestQueryRangeRejectsUnrepresentableNumbers(t *testing.T) {
	s, _, _ := testServer(t)
	st, t0 := testStore(t)
	s.SetStore(st)
	base := "/api/v1/query_range?metric=trace.windows_simulated"
	for _, q := range []string{
		"&from=NaN",
		"&from=1e300",
		"&from=-9.3e15",
		"&from=-Inf&to=Inf",
		"&from=" + itoa(t0) + "&to=Inf",
		"&from=" + itoa(t0) + "&to=9.3e18",
		"&step=NaN",
		"&step=1e300",
		"&step=-Inf",
	} {
		code, body, _ := get(t, s.Handler(), base+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", q, code, body)
			continue
		}
		if env := decodeEnvelope(t, body); env.Error.Code != httpapi.CodeBadRequest {
			t.Errorf("%s: envelope code %q", q, env.Error.Code)
		}
	}
	// The largest representable bounds still answer.
	if code, body, _ := get(t, s.Handler(), base+"&from=-9.2e15&to=9.2e18&step=9e15"); code != 200 {
		t.Errorf("extreme finite range = %d %s, want 200", code, body)
	}
}

// FuzzQueryRange holds /api/v1/query_range to its contract for any
// parameter strings: 200, 400 or 404 and never a 5xx or a panic; a 200
// has from_ms <= to_ms, step_ms >= 1 and strictly increasing point
// times. The store holds a counter, a gauge and a histogram scraped at
// strictly increasing times.
func FuzzQueryRange(f *testing.F) {
	reg := obs.NewRegistry()
	st := tsdb.New(tsdb.Config{Registry: reg, Interval: time.Second, Bus: obs.NewBus()})
	c, g := reg.Counter("trace.windows_simulated"), reg.Gauge("quality.f1")
	h := reg.Histogram("ingest.verdict_latency_seconds", obs.TimeBuckets)
	t0 := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 900; i++ {
		c.Add(10)
		g.Set(float64(i%7) / 7)
		h.Observe(float64(i%13) / 1000)
		st.ScrapeAt(t0.Add(time.Duration(i)*time.Second + time.Duration(i%3)*time.Millisecond))
	}
	s := New(WithRegistry(obs.NewRegistry()), WithBus(obs.NewBus()))
	s.SetStore(st)
	ms := itoa(t0.UnixMilli())
	for _, seed := range [][5]string{
		{"trace.windows_simulated", "NaN", "", "", ""},
		{"trace.windows_simulated", "1e300", "", "", ""},
		{"trace.windows_simulated", "-9.3e15", "", "", ""},
		{"trace.windows_simulated", "-Inf", "Inf", "", ""},
		{"trace.windows_simulated", "", "", "NaN", ""},
		{"trace.windows_simulated", "", "", "1e300", ""},
		{"trace.windows_simulated", ms, itoa(t0.UnixMilli() + 900_000), "15s", "rate"},
		{"quality.f1", "now-1h", "now", "", "max"},
		{"ingest.verdict_latency_seconds:p99", ms, "", "2m", "avg"},
		{"ingest.verdict_latency_seconds:count", "-9.2e15", "9.2e18", "1", "count"},
		{"no.such.metric", "", "", "", "median"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	f.Fuzz(func(t *testing.T, metric, from, to, step, agg string) {
		q := url.Values{"metric": {metric}, "from": {from}, "to": {to}, "step": {step}, "agg": {agg}}
		code, body, _ := get(t, s.Handler(), "/api/v1/query_range?"+q.Encode())
		switch code {
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", code, body)
		}
		var res tsdb.QueryResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, body)
		}
		if res.FromMS > res.ToMS || res.StepMS < 1 {
			t.Fatalf("from_ms %d, to_ms %d, step_ms %d", res.FromMS, res.ToMS, res.StepMS)
		}
		for i := 1; i < len(res.Points); i++ {
			if res.Points[i].T <= res.Points[i-1].T {
				t.Fatalf("point %d at %d ms does not follow %d ms", i, res.Points[i].T, res.Points[i-1].T)
			}
		}
	})
}

func TestAlertsHistoryEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	st, _ := testStore(t)
	st.RecordEvent(obs.Event{Type: "alarm", Sample: "rootkit_001", TimeUnixMS: 1})
	st.RecordEvent(obs.Event{Type: "drift", Msg: "psi over budget", TimeUnixMS: 2})
	s.SetStore(st)

	code, body, _ := get(t, s.Handler(), "/api/v1/alerts/history")
	if code != 200 {
		t.Fatalf("alerts/history = %d", code)
	}
	var h tsdb.EventHistory
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Total != 2 || len(h.Events) != 2 || h.Events[0].Type != "alarm" || h.Events[1].Type != "drift" {
		t.Errorf("history = %+v", h)
	}
}

// TestReadyzGate pins the liveness/readiness split: /healthz never
// gates, /readyz is 503 with the gate's reason until it reports ready,
// and with no gate attached it mirrors liveness.
func TestReadyzGate(t *testing.T) {
	s, _, _ := testServer(t)
	// No gate: mirrors liveness (one-shot CLI semantics).
	if code, body, _ := get(t, s.Handler(), "/readyz"); code != 200 || !strings.HasPrefix(body, "ready") {
		t.Errorf("ungated readyz = %d %q", code, body)
	}

	ready := false
	s = New(WithRegistry(obs.NewRegistry()), WithBus(obs.NewBus()), WithTracer(obs.NewTracer()),
		WithReady(func() (bool, string) {
			if !ready {
				return false, "model not trained"
			}
			return true, ""
		}))
	code, body, _ := get(t, s.Handler(), "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "model not trained") {
		t.Errorf("not-ready readyz = %d %q", code, body)
	}
	// Liveness is unaffected by the gate.
	if code, _, _ := get(t, s.Handler(), "/healthz"); code != 200 {
		t.Errorf("healthz gated = %d", code)
	}
	ready = true
	if code, _, _ := get(t, s.Handler(), "/readyz"); code != 200 {
		t.Errorf("ready readyz = %d", code)
	}
}

// TestSSEKeepAlive pins the heartbeat contract: an idle SSE stream
// receives comment frames, while an idle NDJSON stream stays silent —
// its first byte is the first real event.
func TestSSEKeepAlive(t *testing.T) {
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	s := New(WithRegistry(reg), WithBus(bus), WithTracer(obs.NewTracer()))
	s.keepAlive = 30 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if line := readLine(t, resp.Body); line != ": keepalive" {
		t.Errorf("idle SSE line = %q, want %q", line, ": keepalive")
	}
	// Real events still frame correctly between heartbeats.
	waitSubscribed(t, bus)
	bus.Publish(obs.Event{Type: "alarm", Window: 3})
	deadline := time.Now().Add(5 * time.Second)
	for {
		line := readLine(t, resp.Body)
		if strings.HasPrefix(line, "data: {") {
			var e obs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("SSE data line %q: %v", line, err)
			}
			break
		}
		if line != ": keepalive" && line != "" {
			t.Fatalf("unexpected SSE line %q", line)
		}
		if time.Now().After(deadline) {
			t.Fatal("event never arrived between keepalives")
		}
	}

	// NDJSON: wait several keepalive periods, then publish. The first
	// line must be the event — heartbeats never pollute NDJSON framing.
	nd, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Body.Close()
	time.Sleep(120 * time.Millisecond)
	bus.Publish(obs.Event{Type: "window", Window: 9})
	line := readLine(t, nd.Body)
	var e obs.Event
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("NDJSON first line %q not pure JSON: %v", line, err)
	}
	if e.Type != "window" || e.Window != 9 {
		t.Errorf("NDJSON event = %+v", e)
	}
}

// TestDashboard serves the embedded page and checks it is self-contained
// HTML wired to the query API and event stream.
func TestDashboard(t *testing.T) {
	s, _, _ := testServer(t)
	code, body, hdr := get(t, s.Handler(), "/dashboard")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard = %d %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"<!doctype html>",
		"/api/v1/query_range",
		"/alerts/history",
		"/events?sse=1",
		"trace.windows_simulated",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Zero dependencies: no external scripts, styles, or fonts.
	for _, banned := range []string{"http://", "https://", "src=\"//"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard references external resource (%q)", banned)
		}
	}
}
