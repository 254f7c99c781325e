// Package httpapi is the shared contract of the versioned HTTP API:
// every JSON endpoint — the telemetry server's /api/v1 surface and the
// ingest service's fleet endpoints — renders success bodies and error
// envelopes through these helpers, so clients see one wire format no
// matter which subsystem answered.
//
// The error envelope is stable across all handlers and versions:
//
//	{"error": {"code": "queue_full", "message": "tenant t3 queue at capacity"}}
//
// with the HTTP status carrying the transport semantics (400 bad
// request, 404 not found, 405 method not allowed, 429 backpressure,
// 503 not ready) and the code field a stable machine-readable reason
// within that status.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Stable machine-readable error codes used across the /api/v1 surface.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeQueueFull        = "queue_full"
	CodeTenantLimit      = "tenant_limit"
	CodeUnavailable      = "unavailable"
)

// ErrorDetail is the inner error object of the envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the single JSON error shape every API handler emits.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// Error writes the JSON error envelope with the given status. code
// should be one of the Code* constants (or a new stable identifier);
// message is human-readable detail.
func Error(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ErrorEnvelope{Error: ErrorDetail{Code: code, Message: message}})
}

// Errorf is Error with a formatted message.
func Errorf(w http.ResponseWriter, status int, code, format string, args ...any) {
	Error(w, status, code, fmt.Sprintf(format, args...))
}

// WriteJSON renders v as the indented JSON success body every endpoint
// of the API uses, so responses are byte-stable for a given value.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Methods guards a handler's verb set: requests with any other method
// get the 405 envelope plus the Allow header the RFC requires.
func Methods(h http.HandlerFunc, methods ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range methods {
			if r.Method == m || (m == http.MethodGet && r.Method == http.MethodHead) {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", strings.Join(methods, ", "))
		Errorf(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method %s not allowed on %s (allow: %s)",
			r.Method, r.URL.Path, strings.Join(methods, ", "))
	}
}

// NotFound writes the 404 envelope for an unknown API path.
func NotFound(w http.ResponseWriter, r *http.Request) {
	Errorf(w, http.StatusNotFound, CodeNotFound, "no such endpoint: %s", r.URL.Path)
}
