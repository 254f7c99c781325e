package ingest

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// TenantHeader carries the tenant id when it is not in the body or the
// ?tenant= query parameter.
const TenantHeader = "X-Tenant-ID"

// TraceparentHeader is the W3C Trace Context header ingest reads from
// requests and echoes (with this service's span id) on responses.
const TraceparentHeader = "traceparent"

// maxBodyBytes bounds one ingest request body (64 MiB — far above any
// sane batch, low enough that a runaway client cannot exhaust memory).
const maxBodyBytes = 64 << 20

// Handler returns the ingest service's HTTP surface, rooted at
// /api/v1/ingest and /api/v1/tenants. The telemetry server mounts it;
// it can also serve standalone in tests.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(s.route)
}

func (s *Service) route(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/api/v1/ingest":
		switch r.Method {
		case http.MethodPost:
			s.handleIngest(w, r)
		case http.MethodGet, http.MethodHead:
			httpapi.WriteJSON(w, s.Stats())
		default:
			w.Header().Set("Allow", "GET, POST")
			httpapi.Errorf(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed,
				"method %s not allowed on %s (allow: GET, POST)", r.Method, r.URL.Path)
		}
	case path == "/api/v1/tenants":
		httpapi.Methods(func(w http.ResponseWriter, _ *http.Request) {
			httpapi.WriteJSON(w, map[string]any{"tenants": s.Tenants()})
		}, http.MethodGet)(w, r)
	case strings.HasPrefix(path, "/api/v1/tenants/"):
		httpapi.Methods(func(w http.ResponseWriter, r *http.Request) {
			s.handleTenant(w, r, strings.TrimPrefix(path, "/api/v1/tenants/"))
		}, http.MethodGet)(w, r)
	default:
		httpapi.NotFound(w, r)
	}
}

// handleTenant serves /api/v1/tenants/{id}[/quality|/drift].
func (s *Service) handleTenant(w http.ResponseWriter, r *http.Request, rest string) {
	id, sub, _ := strings.Cut(rest, "/")
	if !validTenantID(id) {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"invalid tenant id %q", id)
		return
	}
	switch sub {
	case "":
		sum, ok := s.Tenant(id)
		if !ok {
			httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
				"unknown tenant: %s", id)
			return
		}
		httpapi.WriteJSON(w, sum)
	case "quality":
		snap, ok := s.TenantQuality(id)
		if !ok {
			httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
				"unknown tenant: %s", id)
			return
		}
		httpapi.WriteJSON(w, snap)
	case "drift":
		snap, ok, armed := s.TenantDrift(id)
		if !ok {
			httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
				"unknown tenant: %s", id)
			return
		}
		if !armed {
			httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
				"drift detection not armed: service has no baseline")
			return
		}
		httpapi.WriteJSON(w, snap)
	default:
		httpapi.NotFound(w, r)
	}
}

// handleIngest accepts POST /api/v1/ingest: a JSON Batch body, or (with
// Content-Type application/x-ndjson) one Window JSON object per line.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	// A malformed traceparent must never reject the batch: parse failure
	// degrades to the zero context, which head-samples a fresh root.
	reqStartNS := time.Now().UnixNano()
	tc, _ := obs.ParseTraceparent(r.Header.Get(TraceparentHeader))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	headerTenant := r.Header.Get(TenantHeader)
	queryTenant := r.URL.Query().Get("tenant")
	if headerTenant != "" && queryTenant != "" && headerTenant != queryTenant {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"conflicting tenant ids: header %q vs query %q", headerTenant, queryTenant)
		return
	}
	tenantID := headerTenant
	if tenantID == "" {
		tenantID = queryTenant
	}

	var batch Batch
	var sl *valueSlab
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		batch.Windows, err = readNDJSON(body)
	} else {
		// The body and the decoder's slabs are the handler's alone; the
		// value slab outlives it while queued windows point into it.
		m := reqPool.Get().(*reqMem)
		defer m.free()
		batch, sl, err = m.readBatch(body, r.ContentLength)
		if sl != nil {
			sl.poison = s.poisonSlabs
		}
		defer sl.release(1)
	}
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	if batch.Tenant != "" {
		if tenantID != "" && batch.Tenant != tenantID {
			httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"conflicting tenant ids: request %q vs body %q", tenantID, batch.Tenant)
			return
		}
		tenantID = batch.Tenant
	}

	if !validTenantID(tenantID) {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"missing or invalid tenant id %q (set %s, ?tenant=, or batch.tenant; [A-Za-z0-9._-]{1,64})",
			tenantID, TenantHeader)
		return
	}
	if tenantID == ReplayTenant {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"tenant id %q is reserved for the daemon's own replay", tenantID)
		return
	}
	switch batch.Overflow {
	case "", OverflowReject, OverflowDropOldest:
	default:
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"unknown overflow policy %q (want %q or %q)",
			batch.Overflow, OverflowReject, OverflowDropOldest)
		return
	}
	if len(batch.Windows) == 0 {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"batch has no windows")
		return
	}
	if len(batch.Windows) > maxBatchWindows {
		httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"batch exceeds %d windows", maxBatchWindows)
		return
	}
	for i := range batch.Windows {
		if err := s.validateWindow(&batch.Windows[i]); err != nil {
			httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"window %d: %v", i, err)
			return
		}
	}

	// Head-sampling decision, once the trace can carry the decoded tenant
	// id. The accept span covers decode + validation.
	at := s.cfg.Tracer.Sample(tc, "ingest", tenantID, reqStartNS)
	if at != nil {
		at.AddSpan("ingest.accept", reqStartNS, time.Now().UnixNano(),
			obs.ReqAttr{Key: "windows", Value: float64(len(batch.Windows))})
	}

	res, err := s.enqueue(tenantID, batch.Overflow, batch.Windows, at, sl)
	if err != nil {
		var full *QueueFullError
		var limit *TenantLimitError
		switch {
		case errors.As(err, &full):
			secs := int(math.Ceil(full.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			httpapi.Errorf(w, http.StatusTooManyRequests, httpapi.CodeQueueFull,
				"tenant %s queue full (%d/%d windows); retry after %ds",
				full.Tenant, full.Queued, full.Cap, secs)
		case errors.As(err, &limit):
			httpapi.Errorf(w, http.StatusTooManyRequests, httpapi.CodeTenantLimit,
				"tenant limit reached (%d)", limit.Limit)
		case errors.Is(err, ErrStopped):
			httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable,
				"ingest service stopped")
		default:
			httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable,
				err.Error())
		}
		// Rejected batches enqueued nothing: the trace ends (and commits)
		// here, tail-kept by the error rule.
		at.SetError(err.Error())
		at.End(time.Now().UnixNano())
		return
	}
	if at != nil {
		res.TraceID = at.TraceID()
		w.Header().Set(TraceparentHeader, at.Context().Traceparent())
	}
	w.WriteHeader(http.StatusAccepted)
	httpapi.WriteJSON(w, res)
	// Release the trace without moving its end (End keeps the later of
	// the two): the root ends at the last verdict, not at the response
	// write, so the staged spans cover it. It commits once every accepted
	// window has its verdict (immediately, when the shards already
	// drained the batch).
	at.End(0)
}

// validateWindow enforces the wire schema: the trained feature
// dimension, finite values, and a binary label when present.
func (s *Service) validateWindow(w *Window) error {
	if len(w.Values) != s.dim {
		return fmt.Errorf("values has %d features, detector expects %d", len(w.Values), s.dim)
	}
	for j, v := range w.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("values[%d] is not finite", j)
		}
	}
	if w.Label != nil && *w.Label != 0 && *w.Label != 1 {
		return fmt.Errorf("label %d outside {0,1}", *w.Label)
	}
	if len(w.Endpoint) > 128 {
		return fmt.Errorf("endpoint id longer than 128 bytes")
	}
	return nil
}

// validTenantID enforces the tenant id charset: [A-Za-z0-9._-]{1,64}.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
