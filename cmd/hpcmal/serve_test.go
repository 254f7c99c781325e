package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// startServe runs runServe in the background with the test hook attached
// and returns its telemetry server plus the error channel.
func startServe(t *testing.T, ctx context.Context, args []string) (*telemetry.Server, chan error) {
	t.Helper()
	ready := make(chan *telemetry.Server, 1)
	serveReady = func(s *telemetry.Server) { ready <- s }
	t.Cleanup(func() { serveReady = nil })
	errc := make(chan error, 1)
	go func() { errc <- runServe(ctx, args) }()
	select {
	case srv := <-ready:
		return srv, errc
	case err := <-errc:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(120 * time.Second):
		t.Fatal("serve never became ready")
	}
	return nil, nil
}

// TestServeGracefulShutdown is the daemon acceptance test: while `serve`
// replays traces, /healthz and /metrics answer, /events streams at least
// one detection event — and cancelling the run context (the SIGINT path)
// shuts everything down cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "16", "-quiet"})

	if resp, err := http.Get(srv.URL() + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "ok") {
			t.Fatalf("healthz = %d %q", resp.StatusCode, body)
		}
	}

	// A detection event arrives on the live stream while traces replay.
	stream, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	lineCh := make(chan string, 1)
	go func() {
		r := bufio.NewReader(stream.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			var e obs.Event
			if json.Unmarshal([]byte(line), &e) == nil &&
				(e.Type == "alarm" || e.Type == "window") {
				select {
				case lineCh <- line:
				default:
				}
				return
			}
		}
	}()
	select {
	case line := <-lineCh:
		t.Logf("streamed event: %s", strings.TrimSpace(line))
	case <-time.After(120 * time.Second):
		t.Fatal("no detection event streamed on /events")
	}

	// /metrics exposes the online instruments live, in Prometheus text.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{"online_monitors_total ", "trace_windows_simulated_total ",
		"online_alarm_latency_windows_bucket{le=\"+Inf\"}"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("live /metrics missing %q", want)
		}
	}

	// The manifest is published while the run is still in flight.
	resp, err = http.Get(srv.URL() + "/api/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatalf("manifest decode: %v", err)
	}
	resp.Body.Close()
	if man.Command != "serve" || man.Build == nil {
		t.Errorf("live manifest = %+v", man)
	}

	// Cancel = SIGINT: serve must exit nil and the server must drain.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exit err: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("serve did not shut down after cancel")
	}
	if _, err := http.Get(srv.URL() + "/healthz"); err == nil {
		t.Error("telemetry server still answering after shutdown")
	}
}

// TestServeBoundedRounds checks the -rounds exit path used by CI: the
// daemon performs its replays and exits on its own, no signal needed,
// and leaves no background loop behind: once runServe has returned, the
// metric scraper and the alert engine no longer touch the process-wide
// registry (a later command's snapshot would otherwise differ).
func TestServeBoundedRounds(t *testing.T) {
	srv, errc := startServe(t, context.Background(), []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "8",
		"-rounds", "1", "-scrape-interval", "10ms", "-alert-interval", "10ms",
		"-quiet"})
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(180 * time.Second):
		t.Fatal("bounded serve never exited")
	}
	if _, err := http.Get(srv.URL() + "/healthz"); err == nil {
		t.Error("server still up after bounded run")
	}
	scrapes := obs.DefaultRegistry.Counter(tsdb.ScrapesMetric).Value()
	evals := obs.DefaultRegistry.Counter(alert.EvaluationsMetric).Value()
	time.Sleep(100 * time.Millisecond) // ten scrape and alert periods
	if got := obs.DefaultRegistry.Counter(tsdb.ScrapesMetric).Value(); got != scrapes {
		t.Errorf("%s moved %d -> %d after serve returned", tsdb.ScrapesMetric, scrapes, got)
	}
	if got := obs.DefaultRegistry.Counter(alert.EvaluationsMetric).Value(); got != evals {
		t.Errorf("%s moved %d -> %d after serve returned", alert.EvaluationsMetric, evals, got)
	}
}

func TestVersionPrints(t *testing.T) {
	// Smoke: the version banner derives from build info without panicking.
	bi := obs.Build()
	if bi.GoVersion == "" {
		t.Error("build info has no Go version")
	}
	if s := bi.String(); s == "" {
		t.Error("empty version banner")
	}
}

// TestServeModelQualityStack is the acceptance path for the model-quality
// layer: a bounded serve with an alert rule file and an incident
// directory must (1) score the labeled replay on /api/v1/quality, (2)
// expose PSI/KS per counter on /api/v1/drift, (3) fire the alert rule onto the bus,
// and (4) leave an incident JSON dump behind.
func TestServeModelQualityStack(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.json")
	// online.monitors is a counter that moves immediately, so the rule
	// fires on the first evaluation tick.
	if err := os.WriteFile(rulesPath, []byte(`[
		{"name": "replay-started", "metric": "online.monitors", "op": ">", "threshold": 0,
		 "severity": "info", "msg": "traces are being monitored"}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	incidents := filepath.Join(dir, "incidents")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Unbounded rounds: the test cancels once it has seen everything, so
	// the endpoints stay up for the whole assertion sequence.
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "16",
		"-rules", rulesPath, "-alert-interval", "100ms",
		"-incident-dir", incidents, "-quiet"})

	getJSON := func(path string, out any) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			resp, err := http.Get(srv.URL() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				if err := json.Unmarshal(body, out); err != nil {
					t.Fatalf("%s not JSON: %v\n%s", path, err, body)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d %s", path, resp.StatusCode, body)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Wait for the first round to finish (rotation 1) so the scoreboard
	// and drift detector have a full window of labeled replay.
	var q struct {
		Rotations      int64   `json:"rotations"`
		WindowObserved int64   `json:"window_observed"`
		Accuracy       float64 `json:"accuracy"`
		Confusion      [][]int `json:"confusion"`
		F1             float64 `json:"f1"`
		Calibration    []any   `json:"calibration"`
	}
	deadline := time.Now().Add(180 * time.Second)
	for q.Rotations == 0 || q.WindowObserved == 0 {
		if time.Now().After(deadline) {
			t.Fatal("/api/v1/quality never reported a scored window")
		}
		getJSON("/api/v1/quality", &q)
		time.Sleep(100 * time.Millisecond)
	}
	if len(q.Confusion) != 2 || len(q.Calibration) == 0 {
		t.Fatalf("/api/v1/quality = %+v", q)
	}
	if q.Accuracy <= 0 || q.Accuracy > 1 {
		t.Fatalf("accuracy = %v", q.Accuracy)
	}

	var d struct {
		WindowObserved int64 `json:"window_observed"`
		Bins           int   `json:"bins"`
		Features       []struct {
			Name string  `json:"name"`
			PSI  float64 `json:"psi"`
			KS   float64 `json:"ks"`
		} `json:"features"`
	}
	getJSON("/api/v1/drift", &d)
	if d.WindowObserved == 0 || len(d.Features) == 0 || d.Features[0].Name == "" {
		t.Fatalf("/api/v1/drift = %+v", d)
	}

	// The rule fires once monitoring has begun.
	var a struct {
		Firing int `json:"firing"`
		Rules  []struct {
			State string `json:"state"`
			Rule  struct {
				Name string `json:"name"`
			} `json:"rule"`
		} `json:"rules"`
	}
	for a.Firing == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert rule never fired")
		}
		getJSON("/api/v1/alerts", &a)
		time.Sleep(50 * time.Millisecond)
	}
	if a.Rules[0].Rule.Name != "replay-started" || a.Rules[0].State != "firing" {
		t.Fatalf("/api/v1/alerts = %+v", a)
	}

	// The firing rule (and any alarms) left incident dumps behind.
	var files []string
	for len(files) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no incident dump written")
		}
		files, _ = filepath.Glob(filepath.Join(incidents, "incident-*.json"))
		time.Sleep(50 * time.Millisecond)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		Reason   string `json:"reason"`
		Build    any    `json:"build"`
		Manifest *obs.Manifest
		Metrics  struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident not JSON: %v", err)
	}
	if inc.Reason == "" || inc.Build == nil || inc.Manifest == nil {
		t.Fatalf("incident = %+v", inc)
	}
	if inc.Metrics.Counters["online.monitors"] == 0 {
		t.Fatal("incident metrics snapshot empty")
	}

	// The flight recorder debug endpoint serves its rings live.
	var fr struct {
		Reason  string `json:"reason"`
		Windows []any  `json:"windows"`
	}
	getJSON("/debug/flightrecorder", &fr)
	if fr.Reason != "snapshot" {
		t.Fatalf("/debug/flightrecorder = %+v", fr)
	}

	// The manifest embeds the training baseline for drift provenance.
	var man obs.Manifest
	getJSON("/api/v1/manifest", &man)
	if len(man.Baseline) == 0 {
		t.Fatal("manifest missing training baseline")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exit: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("serve did not exit")
	}
}

// TestServeQualityDeterministicAcrossParallelism pins the determinism
// contract end to end: the same bounded replay at -parallel 1 and
// -parallel 8 produces identical confusion matrices and drift PSI,
// because every quality update is a commutative count.
func TestServeQualityDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers string) (qBody, dBody string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ready := make(chan *telemetry.Server, 1)
		serveReady = func(s *telemetry.Server) { ready <- s }
		defer func() { serveReady = nil }()
		errc := make(chan error, 1)
		// -rounds 2 with a long -interval: after the first round the loop
		// parks in the inter-round pause, freezing the scoreboard at
		// rotation 1 so both runs are scraped in an identical state.
		go func() {
			errc <- runServe(ctx, []string{
				"-scale", "0.01", "-perclass", "1", "-windows", "8",
				"-rounds", "2", "-interval", "120s",
				"-parallel", workers, "-quiet"})
		}()
		var srv *telemetry.Server
		select {
		case srv = <-ready:
		case err := <-errc:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(120 * time.Second):
			t.Fatal("serve never ready")
		}
		// Let the bounded run finish, then scrape before shutdown: poll
		// until rotations reaches the round count.
		deadline := time.Now().Add(180 * time.Second)
		for {
			resp, err := http.Get(srv.URL() + "/api/v1/quality")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var q struct {
				Rotations int64 `json:"rotations"`
			}
			if resp.StatusCode == 200 && json.Unmarshal(body, &q) == nil && q.Rotations >= 1 {
				qBody = string(body)
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("quality window never rotated")
			}
			time.Sleep(50 * time.Millisecond)
		}
		resp, err := http.Get(srv.URL() + "/api/v1/drift")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		dBody = string(body)
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("serve exit: %v", err)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("serve did not exit")
		}
		return qBody, dBody
	}

	q1, d1 := run("1")
	q8, d8 := run("8")
	if q1 != q8 {
		t.Errorf("/api/v1/quality differs between -parallel 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", q1, q8)
	}
	if d1 != d8 {
		t.Errorf("/api/v1/drift differs between -parallel 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", d1, d8)
	}
}

// TestServeHistoricalObservability is the acceptance path for the
// embedded time-series layer: /readyz transitions 503 → 200 around
// training, the query API answers over scraped history, the dashboard
// serves, alert history is retained, incident dumps embed pre-trigger
// metric history, and `hpcmal top` renders a frame from the live API.
func TestServeHistoricalObservability(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.json")
	if err := os.WriteFile(rulesPath, []byte(`[
		{"name": "replay-started", "metric": "online.monitors", "op": ">", "threshold": 0,
		 "severity": "info", "msg": "traces are being monitored"}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	incidents := filepath.Join(dir, "incidents")

	// Probe the not-ready window synchronously on the serve goroutine:
	// the hook fires after the listener is up but before training, so
	// /readyz must be 503 here — the transition's "before" leg.
	notReady := make(chan string, 1)
	serveStarted = func(s *telemetry.Server) {
		resp, err := http.Get(s.URL() + "/readyz")
		if err != nil {
			notReady <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			notReady <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			return
		}
		notReady <- string(body)
	}
	defer func() { serveStarted = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "16",
		"-scrape-interval", "50ms",
		"-rules", rulesPath, "-alert-interval", "100ms",
		"-incident-dir", incidents, "-quiet"})

	if msg := <-notReady; !strings.Contains(msg, "not ready") {
		t.Fatalf("pre-training /readyz = %q, want a not-ready 503", msg)
	}

	// After training the gate flips: ready as soon as the scraper runs.
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(srv.URL() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 200 && strings.HasPrefix(string(body), "ready") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never became ready: %d %s", resp.StatusCode, body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	getJSON := func(path string, out any) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 200 && out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("%s not JSON: %v\n%s", path, err, body)
			}
		}
		return resp.StatusCode, string(body)
	}

	// The catalog fills as the scraper runs; wait for the replay's own
	// counter to appear so range queries below have real detection data.
	var cat tsdb.Catalog
	for {
		if code, body := getJSON("/api/v1/series", &cat); code != 200 {
			t.Fatalf("/api/v1/series = %d %s", code, body)
		}
		found := false
		for _, si := range cat.Series {
			if si.Name == "trace.windows_simulated" {
				found = true
			}
		}
		if found && cat.LastMS > cat.FirstMS {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catalog never saw the replay: %+v", cat)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Range queries answer from raw and downsampled tiers.
	var raw tsdb.QueryResult
	if code, body := getJSON("/api/v1/query_range?metric=trace.windows_simulated&from=now-2m&to=now&agg=max", &raw); code != 200 {
		t.Fatalf("raw query = %d %s", code, body)
	}
	if raw.Tier != "raw" || len(raw.Points) == 0 {
		t.Fatalf("raw query = %+v", raw)
	}
	var mid tsdb.QueryResult
	if code, body := getJSON("/api/v1/query_range?metric=tsdb.scrapes&from=now-2m&to=now&step=15s&agg=max", &mid); code != 200 {
		t.Fatalf("15s query = %d %s", code, body)
	} else if mid.Tier != "15s" || len(mid.Points) == 0 {
		t.Fatalf("15s query = %+v", mid)
	}
	if code, _ := getJSON("/api/v1/query_range?metric=no.such.series", nil); code != 404 {
		t.Errorf("unknown metric = %d, want 404", code)
	}

	// The firing alert rule lands in the retained event history.
	var hist tsdb.EventHistory
	for hist.Total == 0 {
		if code, body := getJSON("/api/v1/alerts/history", &hist); code != 200 {
			t.Fatalf("/api/v1/alerts/history = %d %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("alert never reached the event history")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if hist.Events[0].Type == "" {
		t.Fatalf("history event = %+v", hist.Events[0])
	}

	// The dashboard is a self-contained HTML page.
	if code, body := getJSON("/dashboard", nil); code != 200 || !strings.Contains(body, "/api/v1/query_range") {
		t.Fatalf("/dashboard = %d", code)
	}

	// Incident dumps carry the pre-trigger metric history.
	var files []string
	for len(files) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no incident dump written")
		}
		files, _ = filepath.Glob(filepath.Join(incidents, "incident-*.json"))
		time.Sleep(50 * time.Millisecond)
	}
	rawInc, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		History *struct {
			FromMS int64                   `json:"from_ms"`
			ToMS   int64                   `json:"to_ms"`
			Series map[string][]tsdb.Point `json:"series"`
		} `json:"history"`
	}
	if err := json.Unmarshal(rawInc, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.History == nil || len(inc.History.Series) == 0 {
		t.Fatalf("incident missing pre-trigger history: %s", files[0])
	}
	if inc.History.ToMS <= inc.History.FromMS {
		t.Fatalf("history window = [%d, %d]", inc.History.FromMS, inc.History.ToMS)
	}

	// `hpcmal top` renders a live frame from the same API.
	c := &topClient{base: srv.URL(), hc: http.DefaultClient}
	frame, err := c.frame(2 * time.Minute)
	if err != nil {
		t.Fatalf("top frame: %v", err)
	}
	for _, want := range []string{"hpcmal top", "ready", "series", "windows/s", "recent alerts"} {
		if !strings.Contains(frame, want) {
			t.Errorf("top frame missing %q:\n%s", want, frame)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exit: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("serve did not exit")
	}
}
