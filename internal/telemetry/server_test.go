package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testServer(t *testing.T) (*Server, *obs.Registry, *obs.Bus) {
	t.Helper()
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	s := New(WithRegistry(reg), WithBus(bus), WithTracer(obs.NewTracer()))
	return s, reg, bus
}

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Result().Header
}

// TestMetricsEndpoint pins the exposition contract end to end: content
// type, the exact counter/gauge/histogram rendering of a known registry,
// and the server's own meta-series.
func TestMetricsEndpoint(t *testing.T) {
	s, reg, _ := testServer(t)
	reg.Counter("online.alarms").Add(2)
	reg.Gauge("parallel.online.monitor.workers").Set(4)
	h := reg.Histogram("online.alarm_latency_windows", []float64{1, 2})
	h.Observe(1)
	h.Observe(8)

	code, body, hdr := get(t, s.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	// The bus and span-tracer mirrors (AttachMetrics in New) put the
	// event-bus counters and the span-eviction counter in the registry
	// itself, so they render once, in sorted order, at zero.
	want := `# TYPE obs_events_dropped_total counter
obs_events_dropped_total 0
# TYPE obs_events_published_total counter
obs_events_published_total 0
# TYPE obs_spans_dropped_total counter
obs_spans_dropped_total 0
# TYPE online_alarms_total counter
online_alarms_total 2
# TYPE obs_events_subscribers gauge
obs_events_subscribers 0
# TYPE parallel_online_monitor_workers gauge
parallel_online_monitor_workers 4
# TYPE online_alarm_latency_windows histogram
online_alarm_latency_windows_bucket{le="1"} 1
online_alarm_latency_windows_bucket{le="2"} 1
online_alarm_latency_windows_bucket{le="+Inf"} 2
online_alarm_latency_windows_sum 9
online_alarm_latency_windows_count 2
`
	if !strings.HasPrefix(body, want) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want prefix ---\n%s", body, want)
	}
	for _, meta := range []string{"hpcmal_build_info{", "hpcmal_uptime_seconds ",
		"obs_events_published_total ", "obs_events_dropped_total ", "obs_events_subscribers "} {
		if !strings.Contains(body, meta) {
			t.Errorf("missing meta-series %q", meta)
		}
	}
}

func TestHealthzAndIndexAndBuildInfo(t *testing.T) {
	s, _, _ := testServer(t)
	if code, body, _ := get(t, s.Handler(), "/healthz"); code != 200 || !strings.HasPrefix(body, "ok uptime_s=") {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, body, _ := get(t, s.Handler(), "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	code, body, hdr := get(t, s.Handler(), "/api/v1/buildinfo")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("buildinfo = %d %q", code, hdr.Get("Content-Type"))
	}
	var bi obs.BuildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("buildinfo not JSON: %v", err)
	}
	if bi.GoVersion == "" {
		t.Error("buildinfo missing go version")
	}
	if code, _, _ := get(t, s.Handler(), "/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestManifestEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	if code, _, _ := get(t, s.Handler(), "/api/v1/manifest"); code != 404 {
		t.Errorf("manifest before SetManifest = %d, want 404", code)
	}
	m := obs.NewManifest("hpcmal", "serve")
	m.Seed = 7
	s.SetManifest(m)
	code, body, _ := get(t, s.Handler(), "/api/v1/manifest")
	if code != 200 {
		t.Fatalf("manifest = %d", code)
	}
	var got obs.Manifest
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Command != "serve" || got.Seed != 7 || got.Build == nil {
		t.Errorf("manifest = %+v", got)
	}
}

// TestEventsStreamNDJSON subscribes over a real HTTP connection and
// receives a published alarm as one NDJSON line.
func TestEventsStreamNDJSON(t *testing.T) {
	s, _, bus := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	waitSubscribed(t, bus)
	bus.Publish(obs.Event{Type: "alarm", Sample: "rootkit_001", Class: "rootkit", Window: 5, Value: 0.06})

	line := readLine(t, resp.Body)
	var e obs.Event
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("stream line %q: %v", line, err)
	}
	if e.Type != "alarm" || e.Sample != "rootkit_001" || e.Window != 5 {
		t.Errorf("event = %+v", e)
	}
}

// TestEventsStreamSSE checks the Server-Sent Events framing.
func TestEventsStreamSSE(t *testing.T) {
	s, _, bus := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	waitSubscribed(t, bus)
	bus.Publish(obs.Event{Type: "window", Window: 1})
	line := readLine(t, resp.Body)
	if !strings.HasPrefix(line, "data: {") {
		t.Errorf("SSE line = %q", line)
	}
}

// TestShutdownEndsStreams is the graceful-shutdown contract: Shutdown
// terminates open /events streams (EOF at the client) and returns.
func TestShutdownEndsStreams(t *testing.T) {
	s, _, bus := testServer(t)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitSubscribed(t, bus)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// The open stream must end rather than hold the drain hostage.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Logf("stream end err (acceptable): %v", err)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get(s.URL() + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

func TestPprofIndex(t *testing.T) {
	s, _, _ := testServer(t)
	if code, body, _ := get(t, s.Handler(), "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", code)
	}
}

func waitSubscribed(t *testing.T, bus *obs.Bus) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readLine(t *testing.T, r io.Reader) string {
	t.Helper()
	type res struct {
		line string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		line, err := bufio.NewReader(r).ReadString('\n')
		ch <- res{line, err}
	}()
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("read stream: %v", out.err)
		}
		return strings.TrimSpace(out.line)
	case <-time.After(5 * time.Second):
		t.Fatal("no stream line within 5s")
		return ""
	}
}

// TestMetricsExposeBusDrops pins satellite behaviour: drop-oldest losses
// on the event bus surface as a counter in /metrics, not just a private
// atomic.
func TestMetricsExposeBusDrops(t *testing.T) {
	s, _, bus := testServer(t)
	sub := bus.Subscribe(2)
	defer sub.Close()
	for i := 0; i < 6; i++ {
		bus.Publish(obs.Event{Type: "window", Window: i})
	}
	_, body, _ := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "obs_events_dropped_total 4") {
		t.Fatalf("dropped counter missing from exposition:\n%s", body)
	}
	if !strings.Contains(body, "obs_events_published_total 6") {
		t.Fatalf("published counter missing from exposition:\n%s", body)
	}
	if strings.Count(body, "# TYPE obs_events_dropped_total") != 1 {
		t.Fatalf("dropped counter family rendered more than once:\n%s", body)
	}
}

// TestQualityEndpoints covers the four late-bound model-quality routes:
// 404 until a source is attached, indented JSON after.
func TestQualityEndpoints(t *testing.T) {
	s, _, _ := testServer(t)
	paths := []string{"/api/v1/quality", "/api/v1/drift", "/api/v1/alerts", "/debug/flightrecorder"}
	for _, p := range paths {
		if code, _, _ := get(t, s.Handler(), p); code != 404 {
			t.Errorf("%s before attach = %d, want 404", p, code)
		}
	}
	s.SetQuality(func() any { return map[string]any{"f1": 0.93} })
	s.SetDrift(func() any { return map[string]any{"drifting": 1} })
	s.SetAlerts(func() any { return map[string]any{"firing": 2} })
	s.SetFlightRecorder(func() any { return map[string]any{"reason": "snapshot"} })
	wants := map[string]string{
		"/api/v1/quality":       `"f1": 0.93`,
		"/api/v1/drift":         `"drifting": 1`,
		"/api/v1/alerts":        `"firing": 2`,
		"/debug/flightrecorder": `"reason": "snapshot"`,
	}
	for _, p := range paths {
		code, body, hdr := get(t, s.Handler(), p)
		if code != 200 || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("%s = %d %q", p, code, hdr.Get("Content-Type"))
		}
		if !strings.Contains(body, wants[p]) {
			t.Errorf("%s body = %q, want %q", p, body, wants[p])
		}
	}
	// Detaching restores 404.
	s.SetQuality(nil)
	if code, _, _ := get(t, s.Handler(), "/api/v1/quality"); code != 404 {
		t.Errorf("detached /api/v1/quality = %d, want 404", code)
	}
}

// TestEventsClientDisconnect pins stream cleanup: when an SSE/NDJSON
// client goes away mid-stream, the handler unsubscribes from the bus and
// its goroutine exits (checked under -race via the subscriber count).
func TestEventsClientDisconnect(t *testing.T) {
	s, _, bus := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, bus)
	bus.Publish(obs.Event{Type: "window", Window: 1})
	if line := readLine(t, resp.Body); !strings.HasPrefix(line, "data: {") {
		t.Fatalf("stream line = %q", line)
	}

	// Drop the client mid-stream. The handler must notice and unsubscribe.
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler kept its bus subscription after client disconnect")
		}
		// Keep publishing so a handler stuck in the select's event arm
		// still wakes up and hits the write error.
		bus.Publish(obs.Event{Type: "window", Window: 2})
		time.Sleep(5 * time.Millisecond)
	}
	// Later events go nowhere, and publishing is still safe.
	bus.Publish(obs.Event{Type: "alarm"})
}
