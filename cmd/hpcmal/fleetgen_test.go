package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
)

// fleetgenOutput runs fleetgen with args and returns what it printed.
func fleetgenOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = cmdFleetgen(args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatalf("fleetgen: %v\n%s", err, printed)
	}
	return printed
}

// TestFleetgenAgainstServe is the fleet e2e: a pure-ingest serve
// (-replay=false) absorbs a small fleetgen run, every window lands in a
// per-tenant scoreboard behind /api/v1/tenants, and the serve-level
// scoreboard answers on /api/v1/quality. A second run against the same
// daemon reports only its own windows on its server: line.
func TestFleetgenAgainstServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, errc := startServe(t, ctx, []string{
		"-scale", "0.01", "-replay=false", "-quiet"})

	fleet := []string{"-addr", srv.Addr(), "-tenants", "2", "-endpoints", "2",
		"-batch", "8", "-rounds", "3", "-windows", "16"}
	const serverLine = "server: 96 windows classified"
	if out := fleetgenOutput(t, fleet...); !strings.Contains(out, serverLine) {
		t.Fatalf("first run output lacks %q:\n%s", serverLine, out)
	}

	getJSON := func(path string, out any) (int, http.Header) {
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
		return resp.StatusCode, resp.Header
	}

	// Both tenants exist, fully drained, with classified windows.
	var tl struct {
		Tenants []ingest.TenantSummary `json:"tenants"`
	}
	if code, _ := getJSON("/api/v1/tenants", &tl); code != 200 {
		t.Fatalf("/api/v1/tenants = %d", code)
	}
	if len(tl.Tenants) != 2 {
		t.Fatalf("tenants = %+v", tl.Tenants)
	}
	for _, ts := range tl.Tenants {
		if ts.WindowsProcessed != 2*3*8 || ts.Queued != 0 {
			t.Fatalf("tenant %s = %+v", ts.ID, ts)
		}
	}

	// Per-tenant quality scored every labeled window; drift is armed.
	var q struct {
		Observed int64 `json:"observed"`
	}
	if code, _ := getJSON("/api/v1/tenants/tenant-00/quality", &q); code != 200 || q.Observed != 48 {
		t.Fatalf("tenant quality = %d observed=%d", code, q.Observed)
	}
	if code, _ := getJSON("/api/v1/tenants/tenant-00/drift", nil); code != 200 {
		t.Fatalf("tenant drift = %d", code)
	}

	// Fleet stats expose the sustained rate and latency percentiles.
	var st ingest.Stats
	if code, _ := getJSON("/api/v1/ingest", &st); code != 200 {
		t.Fatalf("/api/v1/ingest = %d", code)
	}
	if st.WindowsProcessed != 2*2*3*8 || st.Tenants != 2 || st.WindowsPerSec <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.VerdictLatencyP99MS < st.VerdictLatencyP50MS {
		t.Fatalf("latency percentiles inverted: %+v", st)
	}

	if code, _ := getJSON("/api/v1/quality", nil); code != 200 {
		t.Fatalf("/api/v1/quality = %d", code)
	}

	// The daemon has now classified 96 windows; the next run adds 96 and
	// reports those alone.
	if out := fleetgenOutput(t, fleet...); !strings.Contains(out, serverLine) {
		t.Fatalf("second run output lacks %q:\n%s", serverLine, out)
	}
	if code, _ := getJSON("/api/v1/ingest", &st); code != 200 || st.WindowsProcessed != 2*96 {
		t.Fatalf("/api/v1/ingest = %d, stats %+v", code, st)
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

// TestFleetgenNDJSONDropOldest: NDJSON bodies carry no batch envelope,
// so they cannot ask for drop-oldest; fleetgen refuses the combination
// before it contacts any daemon.
func TestFleetgenNDJSONDropOldest(t *testing.T) {
	err := cmdFleetgen([]string{"-addr", "127.0.0.1:1", "-ndjson", "-drop-oldest"})
	if err == nil || !strings.Contains(err.Error(), "NDJSON bodies carry no") {
		t.Fatalf("err = %v, want the NDJSON/drop-oldest refusal", err)
	}
}
