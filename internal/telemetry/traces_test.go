package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// seedTrace commits one trace into rt and returns its id.
func seedTrace(t *testing.T, rt *obs.ReqTracer, tenant string, dur time.Duration, errMsg string) string {
	t.Helper()
	at := rt.Sample(obs.TraceContext{}, "ingest", tenant, 0)
	if at == nil {
		t.Fatal("tracer declined a ratio-1 sample")
	}
	at.AddSpan("ingest.accept", 0, int64(time.Millisecond),
		obs.ReqAttr{Key: "windows", Value: 3})
	if errMsg != "" {
		at.SetError(errMsg)
	}
	at.End(int64(dur))
	return at.TraceID()
}

func TestTracesEndpoint(t *testing.T) {
	s, _, _ := testServer(t)

	// No tracer attached: the surface exists but answers 404 with a hint.
	code, body, _ := get(t, s.Handler(), "/api/v1/traces")
	if code != http.StatusNotFound || !strings.Contains(body, "trace-sample") {
		t.Fatalf("no-tracer response = %d %s", code, body)
	}

	rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
	s.SetReqTracer(rt)
	fast := seedTrace(t, rt, "acme", 2*time.Millisecond, "")
	slow := seedTrace(t, rt, "beta", 500*time.Millisecond, "")
	bad := seedTrace(t, rt, "acme", 3*time.Millisecond, "queue full")

	type listResp struct {
		Traces []obs.ReqTraceSummary `json:"traces"`
		Stats  obs.ReqTraceStats     `json:"stats"`
	}
	decodeList := func(path string) listResp {
		t.Helper()
		code, body, _ := get(t, s.Handler(), path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
		var lr listResp
		if err := json.Unmarshal([]byte(body), &lr); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return lr
	}

	all := decodeList("/api/v1/traces")
	if len(all.Traces) != 3 || all.Stats.Started != 3 {
		t.Fatalf("list = %+v", all)
	}
	// Newest first.
	if all.Traces[0].TraceID != bad {
		t.Fatalf("list not newest-first: %+v", all.Traces)
	}
	if got := decodeList("/api/v1/traces?tenant=beta"); len(got.Traces) != 1 || got.Traces[0].TraceID != slow {
		t.Fatalf("tenant filter: %+v", got.Traces)
	}
	if got := decodeList("/api/v1/traces?min_duration=100ms"); len(got.Traces) != 1 || got.Traces[0].TraceID != slow {
		t.Fatalf("min_duration filter: %+v", got.Traces)
	}
	if got := decodeList("/api/v1/traces?min_duration=100"); len(got.Traces) != 1 {
		t.Fatalf("bare-millisecond min_duration: %+v", got.Traces)
	}
	if got := decodeList("/api/v1/traces?error=1"); len(got.Traces) != 1 || got.Traces[0].TraceID != bad {
		t.Fatalf("error filter: %+v", got.Traces)
	}
	if got := decodeList("/api/v1/traces?limit=2"); len(got.Traces) != 2 {
		t.Fatalf("limit: %+v", got.Traces)
	}

	// Bad query values are 400s, not silent full listings.
	if code, _, _ := get(t, s.Handler(), "/api/v1/traces?min_duration=soon"); code != http.StatusBadRequest {
		t.Fatalf("bad min_duration: %d", code)
	}
	if code, _, _ := get(t, s.Handler(), "/api/v1/traces?limit=many"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", code)
	}

	// The waterfall endpoint returns the full span payload.
	code, body, _ = get(t, s.Handler(), "/api/v1/traces/"+fast)
	if code != http.StatusOK {
		t.Fatalf("get %s: %d %s", fast, code, body)
	}
	var snap obs.ReqTraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TraceID != fast || len(snap.Spans) != 1 || snap.Spans[0].Name != "ingest.accept" {
		t.Fatalf("waterfall = %+v", snap)
	}
	if code, body, _ = get(t, s.Handler(), "/api/v1/traces/"+strings.Repeat("0", 32)); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d %s", code, body)
	}

	// Method discipline matches the rest of the API surface.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE traces: %d", rec.Code)
	}
}

// TestTraceSpansJSON pins the bytes of a request trace's span waterfall
// on /api/v1/traces/{id}. Request spans share obs.SpanRecord with the run
// tracer, whose id and parent_id must never render here.
func TestTraceSpansJSON(t *testing.T) {
	s, _, _ := testServer(t)
	rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
	s.SetReqTracer(rt)
	id := seedTrace(t, rt, "acme", 2*time.Millisecond, "")
	code, body, _ := get(t, s.Handler(), "/api/v1/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("get %s: %d %s", id, code, body)
	}
	var doc struct {
		Spans json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	const want = `[
    {
      "name": "ingest.accept",
      "start_us": 0,
      "dur_us": 1000,
      "attrs": [
        {
          "key": "windows",
          "value": 3
        }
      ]
    }
  ]`
	if string(doc.Spans) != want {
		t.Fatalf("spans =\n%s\nwant\n%s", doc.Spans, want)
	}
}

// FuzzTracesQuery holds /api/v1/traces to its contract for any tenant,
// min_duration, error and limit strings: it never panics and answers 200
// or the 400 envelope, as valid JSON. A 200 applied a finite,
// non-negative min_duration (a Go duration or milliseconds) and lists at
// most limit traces (100 by default, 0 for all), newest first, each
// passing every filter.
func FuzzTracesQuery(f *testing.F) {
	rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
	for i, tr := range []struct {
		tenant string
		dur    time.Duration
		err    string
	}{
		{"acme", 2 * time.Millisecond, ""},
		{"beta", 500 * time.Millisecond, ""},
		{"acme", 3 * time.Millisecond, "queue full"},
		{"", 40 * time.Millisecond, ""},
		{"beta", 120 * time.Millisecond, "bad window"},
	} {
		start := int64(i) * int64(time.Second)
		at := rt.Sample(obs.TraceContext{}, "ingest", tr.tenant, start)
		at.AddSpan("ingest.accept", start, start+int64(time.Millisecond))
		if tr.err != "" {
			at.SetError(tr.err)
		}
		at.End(start + int64(tr.dur))
	}
	s := New(WithRegistry(obs.NewRegistry()), WithBus(obs.NewBus()), WithTracer(obs.NewTracer()))
	s.SetReqTracer(rt)
	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"acme", "100ms", "1", "1"},
		{"beta", "100", "true", "0"},
		{"", "NaN", "", ""},
		{"", "nan", "", ""},
		{"", "-Inf", "", ""},
		{"", "+Inf", "", ""},
		{"", "-5s", "", ""},
		{"", "-1", "", ""},
		{"", "1e400", "", ""},
		{"", "soon", "", "many"},
		{"", "0", "0", "-1"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, tenant, minDur, errOnly, limit string) {
		q := url.Values{"tenant": {tenant}, "min_duration": {minDur}, "error": {errOnly}, "limit": {limit}}
		code, body, _ := get(t, s.Handler(), "/api/v1/traces?"+q.Encode())
		if !json.Valid([]byte(body)) {
			t.Fatalf("status %d, body is not JSON: %s", code, body)
		}
		switch code {
		case http.StatusBadRequest:
			if env := decodeEnvelope(t, body); env.Error.Code != httpapi.CodeBadRequest {
				t.Fatalf("400 envelope code %q", env.Error.Code)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", code, body)
		}
		minMS := 0.0
		if minDur != "" {
			if d, err := time.ParseDuration(minDur); err == nil {
				minMS = float64(d) / float64(time.Millisecond)
			} else if minMS, err = strconv.ParseFloat(minDur, 64); err != nil {
				t.Fatalf("200 for min_duration %q", minDur)
			}
			if math.IsNaN(minMS) || math.IsInf(minMS, 0) || minMS < 0 {
				t.Fatalf("200 for min_duration %q (%v ms)", minDur, minMS)
			}
		}
		maxTraces := 100
		if limit != "" {
			maxTraces, _ = strconv.Atoi(limit) // a 200 parsed it
		}
		var res struct {
			Traces []obs.ReqTraceSummary `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, body)
		}
		if maxTraces > 0 && len(res.Traces) > maxTraces {
			t.Fatalf("%d traces for limit %q", len(res.Traces), limit)
		}
		for i, tr := range res.Traces {
			if i > 0 && tr.StartUnixUS >= res.Traces[i-1].StartUnixUS {
				t.Fatalf("trace %d starts at %d us, not before %d us", i, tr.StartUnixUS, res.Traces[i-1].StartUnixUS)
			}
			if (tenant != "" && tr.Tenant != tenant) || tr.DurMS < minMS ||
				((errOnly == "1" || errOnly == "true") && tr.Error == "") {
				t.Fatalf("trace %+v fails tenant %q, min_duration %q or error %q", tr, tenant, minDur, errOnly)
			}
		}
	})
}

// TestMetricsOpenMetricsNegotiation pins the dual exposition: the
// default scrape stays the byte-stable 0.0.4 text format, while an
// Accept for OpenMetrics switches to the 1.0 format with exemplars and
// the mandatory # EOF terminator.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	s, reg, _ := testServer(t)
	h := reg.Histogram("ingest.latency", []float64{0.1, 1})
	h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736", 1500)

	// Default: 0.0.4, no exemplar syntax, no EOF.
	code, body, hdr := get(t, s.Handler(), "/metrics")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("default scrape: %d %q", code, hdr.Get("Content-Type"))
	}
	if strings.Contains(body, "trace_id") || strings.Contains(body, "# EOF") {
		t.Fatalf("0.0.4 exposition leaked OpenMetrics syntax:\n%s", body)
	}

	// Negotiated: OpenMetrics with the exemplar and terminator.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("openmetrics scrape: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("content type = %q", ct)
	}
	om := rec.Body.String()
	if !strings.Contains(om, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5 1.5`) {
		t.Fatalf("exemplar missing from OpenMetrics exposition:\n%s", om)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition not terminated with # EOF:\n%s", om)
	}
	// The server's synthetic families still render before the terminator.
	if !strings.Contains(om, "hpcmal_build_info") {
		t.Fatalf("build info family missing:\n%s", om)
	}
}
