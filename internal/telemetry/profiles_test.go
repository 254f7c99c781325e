package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/profile"
)

// profilesServer builds a server wired to a profiler that has completed
// one interval cycle and one alert-triggered cycle, sharing one registry
// so the profiler's ring gauges render on /metrics.
func profilesServer(t *testing.T) (*Server, *profile.Profiler) {
	t.Helper()
	reg, bus := obs.NewRegistry(), obs.NewBus()
	p := profile.New(profile.Config{
		Interval: time.Hour, // cycles driven synchronously below
		Duty:     5 * time.Millisecond,
		Registry: reg,
		Bus:      bus,
	})
	p.CycleNow("")
	p.CycleNow("alert")
	s := New(WithRegistry(reg), WithBus(bus), WithProfiler(p))
	return s, p
}

func decodeEnvelope(t *testing.T, body string) httpapi.ErrorEnvelope {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	return env
}

// TestProfilesList pins the list endpoint: newest-first metadata,
// type/trigger/limit filters, stats attached, bad limit rejected.
func TestProfilesList(t *testing.T) {
	s, _ := profilesServer(t)
	h := s.Handler()

	var out struct {
		Profiles []profile.CaptureInfo `json:"profiles"`
		Stats    profile.Stats         `json:"stats"`
	}
	code, body, _ := get(t, h, "/api/v1/profiles")
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 6 { // 2 cycles x (cpu + heap + goroutine)
		t.Fatalf("profiles = %d, want 6", len(out.Profiles))
	}
	if out.Stats.Captures != 6 || len(out.Stats.ByCause) == 0 {
		t.Fatalf("stats = %+v", out.Stats)
	}

	code, body, _ = get(t, h, "/api/v1/profiles?type=cpu&trigger=alert&limit=5")
	if code != 200 {
		t.Fatalf("filtered list: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 1 {
		t.Fatalf("filtered profiles = %+v, want the one alert cpu capture", out.Profiles)
	}
	if p0 := out.Profiles[0]; p0.Type != "cpu" || p0.Trigger != "alert" || !p0.Pinned {
		t.Fatalf("alert capture = %+v", p0)
	}

	if code, body, _ := get(t, h, "/api/v1/profiles?limit=bogus"); code != http.StatusBadRequest ||
		decodeEnvelope(t, body).Error.Code != httpapi.CodeBadRequest {
		t.Fatalf("bad limit: %d %s", code, body)
	}
}

// TestProfileDownloadAndSummary: /{id} streams the raw gzipped pprof
// blob for `go tool pprof`; ?summary=1 returns the parsed top-N JSON.
func TestProfileDownloadAndSummary(t *testing.T) {
	s, p := profilesServer(t)
	h := s.Handler()
	info, _ := p.Latest(profile.TypeHeap)

	code, body, hdr := get(t, h, "/api/v1/profiles/"+info.ID)
	if code != 200 {
		t.Fatalf("download: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, info.ID+".pb.gz") {
		t.Fatalf("content disposition = %q", cd)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("blob does not start with the gzip magic: % x", body[:2])
	}

	code, body, hdr = get(t, h, "/api/v1/profiles/"+info.ID+"?summary=1")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("summary: %d %q", code, hdr.Get("Content-Type"))
	}
	var got profile.CaptureInfo
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != info.ID || got.Summary == nil || got.Summary.SampleType != "inuse_space" {
		t.Fatalf("summary = %+v", got)
	}

	if code, body, _ := get(t, h, "/api/v1/profiles/no-such-id"); code != http.StatusNotFound ||
		decodeEnvelope(t, body).Error.Code != httpapi.CodeNotFound {
		t.Fatalf("unknown id: %d %s", code, body)
	}
}

// TestProfilesWithoutProfiler: 404 with the standard envelope until a
// profiler is attached, and the exposition stays free of profile series.
func TestProfilesWithoutProfiler(t *testing.T) {
	s, _, _ := testServer(t)
	code, body, _ := get(t, s.Handler(), "/api/v1/profiles")
	if code != http.StatusNotFound || decodeEnvelope(t, body).Error.Code != httpapi.CodeNotFound {
		t.Fatalf("profiles without profiler: %d %s", code, body)
	}
	if _, body, _ := get(t, s.Handler(), "/metrics"); strings.Contains(body, "profile_captures_total") {
		t.Fatal("exposition mentions profile_captures_total with no profiler attached")
	}
}

// TestMetricsProfileSeries: with an attached profiler, both exposition
// formats carry the labeled captures-by-cause family plus the ring
// gauges and drop counter that flow through the shared registry.
func TestMetricsProfileSeries(t *testing.T) {
	s, _ := profilesServer(t)

	_, body, _ := get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		"# TYPE profile_captures_total counter",
		`profile_captures_total{type="cpu",trigger="interval"} 1`,
		`profile_captures_total{type="cpu",trigger="alert"} 1`,
		`profile_captures_total{type="heap",trigger="alert"} 1`,
		"profile_ring_bytes ",
		"profile_ring_captures 6",
		"# TYPE profile_dropped_total counter",
		"profile_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("0.0.4 exposition missing %q:\n%s", want, body)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	om := rec.Body.String()
	for _, want := range []string{
		"# TYPE profile_captures counter", // OM family drops _total
		`profile_captures_total{type="cpu",trigger="alert"} 1`,
		"profile_dropped_total 0",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics exposition missing %q:\n%s", want, om)
		}
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics exposition must end with # EOF, got %q", om[max(0, len(om)-40):])
	}
}

// TestPprofProfileContention: while any CPU profile is in flight the
// on-demand /debug/pprof/profile endpoint answers 409 with the standard
// envelope and a Retry-After hint instead of racing runtime/pprof.
func TestPprofProfileContention(t *testing.T) {
	s, _, _ := testServer(t)
	if !profile.TryAcquireCPU() {
		t.Skip("cpu profile slot held elsewhere")
	}
	defer profile.ReleaseCPU()

	code, body, hdr := get(t, s.Handler(), "/debug/pprof/profile?seconds=1")
	if code != http.StatusConflict {
		t.Fatalf("contended capture: %d %s", code, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != "profile_in_progress" {
		t.Fatalf("envelope = %+v", env)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("409 must carry a Retry-After hint")
	}
}
