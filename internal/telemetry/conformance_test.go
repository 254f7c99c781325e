package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// TestAPIConformance is the table-driven wire-contract test for the
// versioned API: every JSON endpoint answers errors with the stable
// {"error":{"code","message"}} envelope and the right status code, and
// rejects wrong methods with 405 + Allow.
func TestAPIConformance(t *testing.T) {
	s, _, _ := testServer(t) // nothing attached: sources all missing

	cases := []struct {
		name   string
		method string
		path   string
		status int
		code   string
	}{
		{"quality unattached", "GET", "/api/v1/quality", 404, httpapi.CodeNotFound},
		{"drift unattached", "GET", "/api/v1/drift", 404, httpapi.CodeNotFound},
		{"alerts unattached", "GET", "/api/v1/alerts", 404, httpapi.CodeNotFound},
		{"alerts history unattached", "GET", "/api/v1/alerts/history", 404, httpapi.CodeNotFound},
		{"manifest unattached", "GET", "/api/v1/manifest", 404, httpapi.CodeNotFound},
		{"series no store", "GET", "/api/v1/series", 404, httpapi.CodeNotFound},
		{"query_range no store", "GET", "/api/v1/query_range?metric=x", 404, httpapi.CodeNotFound},
		{"flightrecorder unattached", "GET", "/debug/flightrecorder", 404, httpapi.CodeNotFound},
		{"ingest unmounted", "POST", "/api/v1/ingest", 503, httpapi.CodeUnavailable},
		{"tenants unmounted", "GET", "/api/v1/tenants", 503, httpapi.CodeUnavailable},
		{"tenant subpath unmounted", "GET", "/api/v1/tenants/acme/quality", 503, httpapi.CodeUnavailable},
		{"quality wrong method", "POST", "/api/v1/quality", 405, httpapi.CodeMethodNotAllowed},
		{"series wrong method", "DELETE", "/api/v1/series", 405, httpapi.CodeMethodNotAllowed},
		{"buildinfo wrong method", "PUT", "/api/v1/buildinfo", 405, httpapi.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type = %q (plain-text errors are gone)", ct)
			}
			var env httpapi.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("not an envelope: %v\n%s", err, rec.Body.String())
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
			if tc.status == 405 && rec.Header().Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}

// TestLegacyAliases pins the retirement of the pre-v1 paths: with every
// source attached, each /api/v1 successor answers 200 and the old path
// answers 404.
func TestLegacyAliases(t *testing.T) {
	s, reg, _ := testServer(t)
	s.SetQuality(func() any { return map[string]any{"f1": 0.91} })
	s.SetDrift(func() any { return map[string]any{"psi": 0.02} })
	s.SetAlerts(func() any { return map[string]any{"firing": 0} })
	s.SetStore(tsdb.New(tsdb.Config{Registry: reg, Bus: obs.NewBus()}))
	s.SetManifest(&obs.Manifest{})

	for _, legacy := range []string{"/quality", "/drift", "/alerts", "/alerts/history", "/manifest", "/buildinfo"} {
		t.Run(legacy, func(t *testing.T) {
			fetch := func(path string) int {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				return rec.Code
			}
			if code := fetch("/api/v1" + legacy); code != http.StatusOK {
				t.Fatalf("successor /api/v1%s = %d, want 200", legacy, code)
			}
			if code := fetch(legacy); code != http.StatusNotFound {
				t.Fatalf("retired %s = %d, want 404", legacy, code)
			}
		})
	}
}

// TestIngestMount wires a fake ingest handler and asserts the telemetry
// server forwards the whole /api/v1/ingest + /api/v1/tenants subtree.
func TestIngestMount(t *testing.T) {
	s, _, _ := testServer(t)
	s.SetIngest(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, map[string]string{"path": r.URL.Path})
	}))
	for _, path := range []string{"/api/v1/ingest", "/api/v1/tenants", "/api/v1/tenants/acme/quality"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), path) {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
	}
}
