package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
)

// TestServeContinuousProfiling is the acceptance path for the continuous
// profiler: under `serve` with a fast cycle, (1) interval captures land
// in the ring and list on /api/v1/profiles, (2) a firing alert rule
// triggers a pinned CPU capture retrievable by trigger filter, (3) the
// raw blob downloads as gzipped pprof and ?summary=1 parses, (4) the
// runtime/metrics gauges answer range queries from the tsdb, and (5)
// the incident dump embeds the triggering profile's metadata.
func TestServeContinuousProfiling(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.json")
	if err := os.WriteFile(rulesPath, []byte(`[
		{"name": "replay-started", "metric": "ingest.windows_processed", "op": ">", "threshold": 0,
		 "severity": "info", "msg": "traces are being monitored"}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	incidents := filepath.Join(dir, "incidents")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "16",
		"-profile-interval", "300ms", "-profile-duty", "100ms",
		"-scrape-interval", "50ms",
		"-rules", rulesPath, "-alert-interval", "100ms",
		"-incident-dir", incidents, "-quiet"})

	getBody := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header
	}

	type listResp struct {
		Profiles []profile.CaptureInfo `json:"profiles"`
		Stats    profile.Stats         `json:"stats"`
	}
	pollList := func(path string, ok func(listResp) bool, what string) listResp {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			code, body, _ := getBody(path)
			var lr listResp
			if code == 200 {
				if err := json.Unmarshal([]byte(body), &lr); err != nil {
					t.Fatalf("%s not JSON: %v\n%s", path, err, body)
				}
				if ok(lr) {
					return lr
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s (last: %d %s)", path, what, code, body)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// (1) The background sampler fills the ring with interval captures of
	// every type.
	all := pollList("/api/v1/profiles", func(lr listResp) bool {
		types := map[string]bool{}
		for _, c := range lr.Profiles {
			types[c.Type] = true
		}
		return types["cpu"] && types["heap"] && types["goroutine"]
	}, "interval captures never covered cpu+heap+goroutine")
	if all.Stats.Captures == 0 || all.Stats.RingBytes == 0 {
		t.Fatalf("stats = %+v", all.Stats)
	}

	// (2) The firing alert rule triggers a pinned CPU capture.
	alert := pollList("/api/v1/profiles?type=cpu&trigger=alert", func(lr listResp) bool {
		return len(lr.Profiles) > 0
	}, "no alert-triggered cpu capture")
	cap0 := alert.Profiles[0]
	if !cap0.Pinned || cap0.Trigger != "alert" {
		t.Fatalf("alert capture = %+v, want pinned trigger=alert", cap0)
	}

	// (3) Raw download is a gzipped pprof blob; ?summary=1 is parsed JSON.
	code, blob, hdr := getBody("/api/v1/profiles/" + cap0.ID)
	if code != 200 || hdr.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("download = %d %q", code, hdr.Get("Content-Type"))
	}
	if len(blob) < 2 || blob[0] != 0x1f || blob[1] != 0x8b {
		t.Fatalf("capture blob missing gzip magic: % x", blob[:2])
	}
	code, body, _ := getBody("/api/v1/profiles/" + cap0.ID + "?summary=1")
	if code != 200 {
		t.Fatalf("summary = %d %s", code, body)
	}
	var info profile.CaptureInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != cap0.ID || info.Summary == nil || info.Summary.SampleType != "cpu" {
		t.Fatalf("summary = %+v", info)
	}

	// (4) runtime/metrics gauges are scraped into the tsdb and answer
	// range queries — the same series alert rules can watch.
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, body, _ := getBody("/api/v1/query_range?metric=runtime.goroutines&from=now-2m&to=now&agg=max")
		if code == 200 {
			var qr struct {
				Points []struct {
					V float64 `json:"v"`
				} `json:"points"`
			}
			if err := json.Unmarshal([]byte(body), &qr); err != nil {
				t.Fatalf("query_range not JSON: %v\n%s", err, body)
			}
			if len(qr.Points) > 0 && qr.Points[len(qr.Points)-1].V >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime.goroutines never queryable: %d %s", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// (5) The incident dump embeds the triggering profile's metadata.
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
		Profile *profile.CaptureInfo `json:"profile"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident not JSON: %v", err)
	}
	if inc.Profile == nil || inc.Profile.Type != "cpu" {
		t.Fatalf("incident %s missing embedded cpu profile: %s", files[0], raw)
	}

	// The labeled captures family renders on /metrics under load.
	if _, metrics, _ := getBody("/metrics"); !strings.Contains(metrics, `profile_captures_total{type="cpu",trigger="interval"}`) {
		t.Error("/metrics missing profile_captures_total interval series")
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

// TestServeProfilerDisabled: -profile-interval 0 leaves no profiler
// attached, so the API reports 404 instead of an empty ring.
func TestServeProfilerDisabled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-perclass", "1", "-windows", "8",
		"-profile-interval", "0", "-quiet"})
	resp, err := http.Get(srv.URL() + "/api/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "profile-interval") {
		t.Fatalf("disabled profiler: %d %s", resp.StatusCode, body)
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
