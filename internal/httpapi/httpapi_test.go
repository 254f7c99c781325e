package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestErrorEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	Errorf(rec, http.StatusTooManyRequests, CodeQueueFull, "tenant %s queue at capacity", "t3")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope not JSON: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code != CodeQueueFull || !strings.Contains(env.Error.Message, "t3") {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestMethodsGuard(t *testing.T) {
	h := Methods(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(200)
	}, http.MethodGet)

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/api/v1/quality", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST on GET-only = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q", allow)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("envelope = %s (err %v)", rec.Body.String(), err)
	}

	// HEAD rides a GET-only handler (net/http strips the body).
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodHead, "/api/v1/quality", nil))
	if rec.Code != 200 {
		t.Fatalf("HEAD on GET-only = %d", rec.Code)
	}
}
