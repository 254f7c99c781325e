// Package telemetry is the live window into a running detection
// pipeline: an embeddable HTTP server that exposes the obs instruments
// while a run is in flight instead of only after it exits.
//
// The JSON API lives under the versioned /api/v1 prefix; operational
// probes and streams stay unversioned (see DESIGN.md for the policy):
//
//	/            endpoint index (plain text)
//	/healthz     liveness: "ok" plus uptime (never gated)
//	/readyz      readiness: 503 until the attached gate reports ready
//	/metrics     Prometheus text exposition 0.0.4 of the metrics registry
//	/events      live detection-event stream (NDJSON, or SSE on Accept)
//	/dashboard   embedded live dashboard (HTML, zero dependencies)
//
//	/api/v1/buildinfo      module version, VCS revision, Go version (JSON)
//	/api/v1/manifest       the in-flight run manifest (JSON)
//	/api/v1/quality        detection scoreboard: confusion, F1, calibration (JSON)
//	/api/v1/drift          per-counter PSI/KS against the train-time baseline (JSON)
//	/api/v1/alerts         alert-rule engine state (JSON)
//	/api/v1/alerts/history retained alert/drift/alarm events (JSON)
//	/api/v1/series         time-series catalog of the embedded tsdb (JSON)
//	/api/v1/query_range    range query: ?metric=&from=&to=&step=&agg= (JSON)
//	/api/v1/ingest         fleet window ingest (POST) + service stats (GET)
//	/api/v1/tenants[...]   per-tenant summaries, quality, drift (JSON)
//	/api/v1/traces         retained request traces (JSON; ?tenant= &min_duration= &error=)
//	/api/v1/traces/{id}    one trace's span waterfall (JSON)
//	/api/v1/models         compiled inference programs: classifier, precision,
//	                       widths, scale table, agreement (JSON)
//	/api/v1/models/{name}  one program's full spec (JSON)
//	/api/v1/profiles       continuous-profiler capture ring (JSON;
//	                       ?type= &trigger= &limit=) + profiler stats
//	/api/v1/profiles/{id}  raw gzipped pprof blob (feed to `go tool
//	                       pprof`), or ?summary=1 for the JSON top-N
//
//	/debug/flightrecorder  the flight recorder's current rings (JSON)
//	/debug/pprof           CPU/heap/goroutine profiling (net/http/pprof;
//	                       on-demand CPU captures are capped at one at a
//	                       time — contention answers 409)
//
// Every JSON endpoint renders errors as the stable envelope
// {"error": {"code": ..., "message": ...}} from internal/httpapi.
//
// The model-quality endpoints 404 until a source is attached via
// SetQuality (and siblings) — a plain telemetry server (every CLI
// command's -listen) has no labeled replay to score.
// Likewise the historical endpoints 404 until a store is attached, and
// the ingest endpoints answer 503 until an ingest service is mounted.
//
// The server is started by the shared -listen flag for the duration of
// any CLI run, and runs permanently under `hpcmal serve`.
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tsdb"
)

// config wires a Server to the sources that must hold from its first
// request; it is built from Options. Zero fields fall back to the
// process-wide defaults.
type config struct {
	registry *obs.Registry
	tracer   *obs.Tracer
	bus      *obs.Bus
	ready    func() (bool, string)
	profiler *profile.Profiler
}

// Stream settings for /events.
const (
	// eventBuffer is each stream's subscription buffer; overflow drops
	// the oldest undelivered events.
	eventBuffer = 256
	// sseKeepAlive is the idle-stream heartbeat period for SSE clients:
	// comment frames that keep proxies and load-balancer idle timeouts
	// from severing a quiet stream. NDJSON streams are never touched —
	// heartbeats are an SSE comment-frame concept and would corrupt
	// line-delimited JSON framing.
	sseKeepAlive = 15 * time.Second
)

// ModelInfo is one deployed inference program as served by
// /api/v1/models: the name it answers to plus its introspection spec
// (an infer.ProgramSpec, held as any to keep telemetry's dependency
// surface flat).
type ModelInfo struct {
	Name string `json:"name"`
	Spec any    `json:"spec"`
}

// Option configures New with what must hold from the first request
// (readiness gates especially). Sources that only exist after the
// server is already listening (serve trains its model with the server
// up) attach through the Set* methods.
type Option func(*config)

// WithRegistry sets the metrics registry behind /metrics
// (default obs.DefaultRegistry).
func WithRegistry(r *obs.Registry) Option { return func(c *config) { c.registry = r } }

// WithTracer sets the span tracer (default obs.DefaultTracer).
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithBus sets the event bus behind /events (default obs.DefaultBus).
func WithBus(b *obs.Bus) Option { return func(c *config) { c.bus = b } }

// WithReady gates /readyz: the endpoint answers 503 with the returned
// reason until the gate reports true. Without it /readyz mirrors
// liveness — the right semantics for one-shot CLI runs that have
// nothing to warm up.
func WithReady(fn func() (bool, string)) Option { return func(c *config) { c.ready = fn } }

// WithProfiler attaches the continuous profiler behind /api/v1/profiles
// and its labeled capture counters on /metrics. Nil leaves the
// endpoints 404 (the profiler is disabled with -profile-interval 0).
func WithProfiler(p *profile.Profiler) Option { return func(c *config) { c.profiler = p } }

// Server serves the telemetry endpoints over HTTP.
type Server struct {
	cfg      config
	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	started  time.Time
	manifest atomic.Pointer[obs.Manifest]
	// keepAlive is the SSE heartbeat period: sseKeepAlive, shortened
	// only by in-package tests.
	keepAlive time.Duration
	// Late-bound sources (see Set*): atomic so serve can attach them
	// after Start without racing in-flight scrapes.
	quality   atomic.Pointer[snapshotFn]
	drift     atomic.Pointer[snapshotFn]
	alerts    atomic.Pointer[snapshotFn]
	flight    atomic.Pointer[snapshotFn]
	store     atomic.Pointer[tsdb.Store]
	ingest    atomic.Pointer[http.Handler]
	reqTracer atomic.Pointer[obs.ReqTracer]
	models    atomic.Pointer[modelsFn]
	// closing is closed on Shutdown so long-lived /events streams end
	// promptly and let the graceful drain finish.
	closing      chan struct{}
	serveErr     chan error
	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a server over the given sources without listening yet.
func New(opts ...Option) *Server {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.registry == nil {
		cfg.registry = obs.DefaultRegistry
	}
	if cfg.tracer == nil {
		cfg.tracer = obs.DefaultTracer
	}
	if cfg.bus == nil {
		cfg.bus = obs.DefaultBus
	}
	// Mirror the bus's delivery/drop/subscriber accounting into the
	// registry so /metrics exposes it without hand-written lines; same
	// for the span tracer's retention-cap eviction count.
	cfg.bus.AttachMetrics(cfg.registry)
	cfg.tracer.AttachMetrics(cfg.registry)
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		started:   time.Now(),
		keepAlive: sseKeepAlive,
		closing:   make(chan struct{}),
		serveErr:  make(chan error, 1),
	}

	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/dashboard", s.handleDashboard)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/events", s.handleEvents)

	// The versioned JSON API.
	s.mux.HandleFunc("/api/v1/buildinfo", httpapi.Methods(s.handleBuildInfo, http.MethodGet))
	s.mux.HandleFunc("/api/v1/manifest", httpapi.Methods(s.handleManifest, http.MethodGet))
	s.mux.HandleFunc("/api/v1/quality", httpapi.Methods(s.snapshotHandler(&s.quality, "no detection scoreboard attached"), http.MethodGet))
	s.mux.HandleFunc("/api/v1/drift", httpapi.Methods(s.snapshotHandler(&s.drift, "no drift detector attached"), http.MethodGet))
	s.mux.HandleFunc("/api/v1/alerts", httpapi.Methods(s.snapshotHandler(&s.alerts, "no alert engine attached"), http.MethodGet))
	s.mux.HandleFunc("/api/v1/alerts/history", httpapi.Methods(s.handleAlertsHistory, http.MethodGet))
	s.mux.HandleFunc("/api/v1/series", httpapi.Methods(s.handleSeries, http.MethodGet))
	s.mux.HandleFunc("/api/v1/query_range", httpapi.Methods(s.handleQueryRange, http.MethodGet))

	// The fleet ingest surface mounts as an opaque handler (the ingest
	// package owns routing under these prefixes).
	s.mux.HandleFunc("/api/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/api/v1/tenants", s.handleIngest)
	s.mux.HandleFunc("/api/v1/tenants/", s.handleIngest)

	// The request-trace query surface: retained trace list + waterfalls.
	s.mux.HandleFunc("/api/v1/traces", httpapi.Methods(s.handleTraces, http.MethodGet))
	s.mux.HandleFunc("/api/v1/traces/", httpapi.Methods(s.handleTraces, http.MethodGet))

	// The compiled-program catalog: deployed models and their specs.
	s.mux.HandleFunc("/api/v1/models", httpapi.Methods(s.handleModels, http.MethodGet))
	s.mux.HandleFunc("/api/v1/models/", httpapi.Methods(s.handleModels, http.MethodGet))

	// The continuous profiler's capture ring and blob downloads.
	s.mux.HandleFunc("/api/v1/profiles", httpapi.Methods(s.handleProfiles, http.MethodGet))
	s.mux.HandleFunc("/api/v1/profiles/", httpapi.Methods(s.handleProfiles, http.MethodGet))

	s.mux.HandleFunc("/debug/flightrecorder", httpapi.Methods(s.snapshotHandler(&s.flight, "no flight recorder attached"), http.MethodGet))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", s.handlePprofProfile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// handlePprofProfile serves on-demand CPU profiles like net/http/pprof,
// but capped at one capture at a time process-wide: the runtime allows
// a single CPU profile, and without the cap a second dashboard poll
// would stack requests behind runtime/pprof's opaque error. Contention
// — with another on-demand capture, the continuous profiler's duty
// window, or a -cpuprofile run — answers 409 with the API's standard
// error envelope and a Retry-After hint.
func (s *Server) handlePprofProfile(w http.ResponseWriter, r *http.Request) {
	if !profile.TryAcquireCPU() {
		w.Header().Set("Retry-After", "5")
		httpapi.Error(w, http.StatusConflict, "profile_in_progress",
			"a CPU profile capture is already in progress (on-demand captures are capped at 1; retry shortly)")
		return
	}
	defer profile.ReleaseCPU()
	pprof.Profile(w, r)
}

// Handler returns the server's routing handler (useful for tests).
func (s *Server) Handler() http.Handler { return s.mux }

// SetManifest publishes the in-flight run manifest on /api/v1/manifest.
func (s *Server) SetManifest(m *obs.Manifest) { s.manifest.Store(m) }

// snapshotFn produces one JSON-renderable snapshot for a model-quality
// endpoint.
type snapshotFn func() any

func storeFn(p *atomic.Pointer[snapshotFn], fn func() any) {
	if fn == nil {
		p.Store(nil)
		return
	}
	sf := snapshotFn(fn)
	p.Store(&sf)
}

// SetQuality attaches (or, with nil, detaches) the /api/v1/quality
// source: a function whose result is rendered as JSON (e.g. a
// quality.Scoreboard's Snapshot).
func (s *Server) SetQuality(fn func() any) { storeFn(&s.quality, fn) }

// SetDrift attaches the /api/v1/drift source.
func (s *Server) SetDrift(fn func() any) { storeFn(&s.drift, fn) }

// SetAlerts attaches the /api/v1/alerts source.
func (s *Server) SetAlerts(fn func() any) { storeFn(&s.alerts, fn) }

// SetFlightRecorder attaches the /debug/flightrecorder source.
func (s *Server) SetFlightRecorder(fn func() any) { storeFn(&s.flight, fn) }

// SetStore attaches (or, with nil, detaches) the embedded time-series
// store behind /api/v1/series, /api/v1/query_range and
// /api/v1/alerts/history.
func (s *Server) SetStore(st *tsdb.Store) { s.store.Store(st) }

// SetIngest mounts (or, with nil, unmounts) the fleet ingest service
// after construction — serve builds it once the detector is trained.
func (s *Server) SetIngest(h http.Handler) {
	if h == nil {
		s.ingest.Store(nil)
		return
	}
	s.ingest.Store(&h)
}

// SetReqTracer attaches (or, with nil, detaches) the request-trace
// store behind /api/v1/traces after construction.
func (s *Server) SetReqTracer(rt *obs.ReqTracer) { s.reqTracer.Store(rt) }

// modelsFn produces the current deployed-program catalog.
type modelsFn func() []ModelInfo

// SetModels attaches (or, with nil, detaches) the /api/v1/models source
// after construction — serve attaches it once the detector is trained
// and compiled.
func (s *Server) SetModels(fn func() []ModelInfo) {
	if fn == nil {
		s.models.Store(nil)
		return
	}
	mf := modelsFn(fn)
	s.models.Store(&mf)
}

// handleProfiles serves the continuous profiler's capture ring:
//
//	GET /api/v1/profiles                capture metadata newest-first,
//	                                    filterable by ?type= (cpu, heap,
//	                                    goroutine), ?trigger= (interval,
//	                                    alert, alarm, manual), ?limit=N;
//	                                    plus profiler stats
//	GET /api/v1/profiles/{id}           the raw gzipped pprof blob —
//	                                    `go tool pprof` reads it directly
//	GET /api/v1/profiles/{id}?summary=1 the parsed top-N flat/cum JSON
//
// 404 until a profiler is attached (disabled via -profile-interval 0).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	p := s.cfg.profiler
	if p == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no continuous profiler attached (enabled by default under -listen; -profile-interval 0 disables it)")
		return
	}
	if id := strings.TrimPrefix(strings.TrimSuffix(r.URL.Path, "/"), "/api/v1/profiles"); id != "" {
		id = strings.TrimPrefix(id, "/")
		info, blob, ok := p.Get(id)
		if !ok {
			httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
				"unknown profile id %q (captures live in a byte-budgeted ring; it may have been evicted)", id)
			return
		}
		if v := r.URL.Query().Get("summary"); v == "1" || v == "true" {
			httpapi.WriteJSON(w, info)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".pb.gz"))
		w.Write(blob)
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	httpapi.WriteJSON(w, map[string]any{
		"profiles": p.List(q.Get("type"), q.Get("trigger"), limit),
		"stats":    p.Stats(),
	})
}

// handleModels serves the compiled-program catalog:
//
//	GET /api/v1/models         every deployed program: name + spec
//	GET /api/v1/models/{name}  one program's spec (name match is
//	                           case-insensitive)
//
// 404 until a source is attached (plain -listen runs deploy none).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	fn := s.models.Load()
	if fn == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no compiled programs deployed")
		return
	}
	models := (*fn)()
	name := strings.TrimPrefix(strings.TrimSuffix(r.URL.Path, "/"), "/api/v1/models")
	name = strings.TrimPrefix(name, "/")
	if name == "" {
		httpapi.WriteJSON(w, map[string]any{"models": models})
		return
	}
	for _, m := range models {
		if strings.EqualFold(m.Name, name) {
			httpapi.WriteJSON(w, m)
			return
		}
	}
	have := make([]string, len(models))
	for i, m := range models {
		have[i] = m.Name
	}
	httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
		"unknown model %q (deployed: %s)", name, strings.Join(have, ", "))
}

// handleTraces serves the request-trace query surface:
//
//	GET /api/v1/traces        retained trace summaries, newest first,
//	                          filterable by ?tenant=, ?min_duration=
//	                          (Go duration or milliseconds), ?error=1,
//	                          ?limit=N; plus tracer stats
//	GET /api/v1/traces/{id}   one trace's full span waterfall
//
// 404 until a tracer is attached (tracing is opt-in via serve flags).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	rt := s.reqTracer.Load()
	if rt == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no request tracer attached (enable tracing with serve -trace-sample)")
		return
	}
	if id := strings.TrimPrefix(strings.TrimSuffix(r.URL.Path, "/"), "/api/v1/traces"); id != "" {
		id = strings.TrimPrefix(id, "/")
		snap, ok := rt.Get(id)
		if !ok {
			httpapi.Errorf(w, http.StatusNotFound, httpapi.CodeNotFound,
				"unknown trace id %q (traces are retained in a bounded ring; it may have been evicted)", id)
			return
		}
		httpapi.WriteJSON(w, snap)
		return
	}
	q := r.URL.Query()
	var f obs.ReqTraceFilter
	f.Tenant = q.Get("tenant")
	if v := q.Get("min_duration"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if d, derr := time.ParseDuration(v); derr == nil {
			ms, err = float64(d)/float64(time.Millisecond), nil
		}
		// NaN would filter nothing: no duration compares below it.
		if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
			httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"bad min_duration %q (want a non-negative duration like 100ms or milliseconds)", v)
			return
		}
		f.MinDurMS = ms
	}
	if v := q.Get("error"); v == "1" || v == "true" {
		f.ErrorOnly = true
	}
	f.Limit = 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpapi.Errorf(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"bad limit %q", v)
			return
		}
		f.Limit = n
	}
	httpapi.WriteJSON(w, map[string]any{
		"traces": rt.List(f),
		"stats":  rt.Stats(),
	})
}

// handleIngest forwards /api/v1/ingest and /api/v1/tenants* to the
// mounted ingest service, or answers 503 while none is mounted (serve
// mounts it after training; plain -listen runs never do).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	h := s.ingest.Load()
	if h == nil {
		httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable,
			"no ingest service mounted")
		return
	}
	(*h).ServeHTTP(w, r)
}

// snapshotHandler serves a late-bound snapshot source as indented JSON,
// or the 404 envelope with a hint while no source is attached.
func (s *Server) snapshotHandler(p *atomic.Pointer[snapshotFn], missing string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		fn := p.Load()
		if fn == nil {
			httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound, missing)
			return
		}
		httpapi.WriteJSON(w, (*fn)())
	}
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		err := s.httpSrv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.serveErr <- err
	}()
	obs.Log().Info("telemetry server listening", "url", s.URL())
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL (empty before Start).
func (s *Server) URL() string {
	a := s.Addr()
	if a == "" {
		return ""
	}
	return "http://" + a
}

// Shutdown ends open event streams and gracefully drains the HTTP
// server. Safe to call more than once; later calls return the first
// call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.httpSrv == nil {
		return nil
	}
	s.shutdownOnce.Do(func() {
		close(s.closing)
		err := s.httpSrv.Shutdown(ctx)
		if serr := <-s.serveErr; err == nil {
			err = serr
		}
		s.shutdownErr = err
	})
	return s.shutdownErr
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `hpcmal telemetry
  /healthz      liveness
  /readyz       readiness (503 until model trained and scraper running)
  /metrics      Prometheus text exposition
  /events       detection-event stream (NDJSON; SSE with Accept: text/event-stream)
  /dashboard    live dashboard (HTML)
  /api/v1/buildinfo      binary identity (JSON)
  /api/v1/manifest       in-flight run manifest (JSON)
  /api/v1/quality        detection scoreboard: confusion, F1, calibration (JSON)
  /api/v1/drift          per-counter PSI/KS vs the training baseline (JSON)
  /api/v1/alerts         alert-rule engine state (JSON)
  /api/v1/alerts/history retained alert/drift/alarm events (JSON)
  /api/v1/series         time-series catalog (JSON)
  /api/v1/query_range    ?metric=&from=&to=&step=&agg= (JSON)
  /api/v1/ingest         fleet window ingest (POST; GET for stats)
  /api/v1/tenants        per-tenant summaries, /{id}/quality, /{id}/drift (JSON)
  /api/v1/traces         retained request traces (?tenant= &min_duration= &error= &limit=)
  /api/v1/traces/{id}    one trace's span waterfall (JSON)
  /api/v1/models         deployed inference programs: precision, widths, agreement (JSON)
  /api/v1/models/{name}  one program's full spec incl. scale table (JSON)
  /api/v1/profiles       continuous-profiler captures (?type= &trigger= &limit=) (JSON)
  /api/v1/profiles/{id}  raw pprof blob for "go tool pprof"; ?summary=1 for top-N JSON
  /debug/flightrecorder  flight-recorder rings (JSON)
  /debug/pprof  profiling (on-demand CPU captures capped at 1; 409 on contention)
`)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It is never gated on model state — a daemon mid-training is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime_s=%.1f\n", time.Since(s.started).Seconds())
}

// handleReadyz is readiness: 503 with a reason until the attached gate
// reports ready (serve gates on "model trained AND tsdb scraper
// running"). With no gate attached it mirrors liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.ready != nil {
		if ok, reason := s.cfg.ready(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "not ready: %s\n", reason)
			return
		}
	}
	fmt.Fprintf(w, "ready uptime_s=%.1f\n", time.Since(s.started).Seconds())
}

// parseQueryTime parses a /api/v1/query_range time bound: "now",
// "now-<duration>" (e.g. "now-5m"), a Unix timestamp in seconds, or one
// in milliseconds (values above 1e12 — i.e. any real ms timestamp —
// are taken as ms). Empty falls back to def.
func parseQueryTime(v string, now time.Time, def int64) (int64, error) {
	switch {
	case v == "":
		return def, nil
	case v == "now":
		return now.UnixMilli(), nil
	case strings.HasPrefix(v, "now-"):
		d, err := time.ParseDuration(v[len("now-"):])
		if err != nil {
			return 0, fmt.Errorf("bad relative time %q: %w", v, err)
		}
		return now.Add(-d).UnixMilli(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q (want now, now-<dur>, or unix seconds/ms)", v)
	}
	if f <= 1e12 {
		f *= 1000
	}
	ms, ok := floatMS(f)
	if !ok {
		return 0, fmt.Errorf("bad time %q (not finite, or outside int64 milliseconds)", v)
	}
	return ms, nil
}

// floatMS converts a number of milliseconds to int64. It refuses NaN,
// ±Inf and anything beyond ±2^63, where Go's conversion is
// implementation-defined.
func floatMS(f float64) (int64, bool) {
	if !(f >= -0x1p63 && f < 0x1p63) {
		return 0, false
	}
	return int64(f), true
}

// parseQueryStep parses the step parameter: a Go duration ("30s") or a
// bare number of seconds. Empty or zero asks for the answering tier's
// native resolution.
func parseQueryStep(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		return d.Milliseconds(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad step %q (want a duration like 30s or seconds)", v)
	}
	ms, ok := floatMS(f * 1000)
	if !ok {
		return 0, fmt.Errorf("bad step %q (not finite, or outside int64 milliseconds)", v)
	}
	return ms, nil
}

// handleSeries serves the tsdb catalog, or 404 while no store is
// attached (plain -listen runs have no historical store).
func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Load()
	if st == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no time-series store attached")
		return
	}
	httpapi.WriteJSON(w, st.Series())
}

// handleQueryRange answers ?metric=&from=&to=&step=&agg= range queries
// against the embedded store. Defaults: from=now-5m, to=now, step=tier
// native, agg=avg. Unknown metrics are 404; malformed parameters 400.
func (s *Server) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	st := s.store.Load()
	if st == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no time-series store attached")
		return
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest,
			"missing metric parameter")
		return
	}
	now := time.Now()
	fromMS, err := parseQueryTime(q.Get("from"), now, now.Add(-5*time.Minute).UnixMilli())
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	toMS, err := parseQueryTime(q.Get("to"), now, now.UnixMilli())
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	stepMS, err := parseQueryStep(q.Get("step"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	result, err := st.QueryRange(metric, fromMS, toMS, stepMS, q.Get("agg"))
	if err != nil {
		if errors.Is(err, tsdb.ErrUnknownMetric) {
			httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error())
			return
		}
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	httpapi.WriteJSON(w, result)
}

// handleAlertsHistory serves the store's retained alert/drift/alarm
// events — history that outlives the alert engine's current state.
func (s *Server) handleAlertsHistory(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Load()
	if st == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no time-series store attached")
		return
	}
	httpapi.WriteJSON(w, st.Events())
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, obs.Build())
}

// handleMetrics renders the registry as Prometheus text, appending the
// server's own meta-series (build info, uptime) so scrapers see the
// serving binary's identity too. The event bus's delivery/drop totals
// arrive through the registry itself — New mirrors the bus into it via
// AttachMetrics — so they render exactly once.
//
// Scrapers that accept application/openmetrics-text get the OpenMetrics
// 1.0 rendering instead: same families plus trace-id exemplars on
// histogram buckets and the mandatory `# EOF` terminator. The default
// 0.0.4 output is byte-for-byte what it was before exemplars existed —
// the exposition golden tests pin it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	write, contentType := obs.WritePrometheus, "text/plain; version=0.0.4; charset=utf-8"
	if om {
		write, contentType = obs.WriteOpenMetrics, obs.OpenMetricsContentType
	}
	w.Header().Set("Content-Type", contentType)
	if err := write(w, s.cfg.registry.Snapshot()); err != nil {
		return
	}
	bi := obs.Build()
	fmt.Fprintf(w, "# TYPE hpcmal_build_info gauge\nhpcmal_build_info{version=%s,revision=%s,go=%s} 1\n",
		obs.QuoteLabel(bi.Version), obs.QuoteLabel(bi.Revision), obs.QuoteLabel(bi.GoVersion))
	fmt.Fprintf(w, "# TYPE hpcmal_uptime_seconds gauge\nhpcmal_uptime_seconds %g\n",
		time.Since(s.started).Seconds())
	s.writeProfileCaptures(w, om)
	if om {
		fmt.Fprint(w, "# EOF\n")
	}
}

// writeProfileCaptures appends the profiler's captures-by-cause table
// as the labeled family profile_captures_total{type,trigger}. The
// registry cannot render labeled series (its metrics are plain names),
// so these lines are hand-written next to hpcmal_build_info; the
// profiler's unlabeled ring gauges and drop counters flow through the
// registry like any metric. Written only while a profiler is attached,
// keeping the pre-profiler exposition byte-stable.
func (s *Server) writeProfileCaptures(w http.ResponseWriter, openMetrics bool) {
	p := s.cfg.profiler
	if p == nil {
		return
	}
	byCause := p.Stats().ByCause
	if len(byCause) == 0 {
		return
	}
	if openMetrics {
		// OpenMetrics names the family without the _total suffix.
		fmt.Fprint(w, "# TYPE profile_captures counter\n")
	} else {
		fmt.Fprint(w, "# TYPE profile_captures_total counter\n")
	}
	for _, c := range byCause {
		fmt.Fprintf(w, "profile_captures_total{type=%s,trigger=%s} %d\n",
			obs.QuoteLabel(c.Type), obs.QuoteLabel(c.Trigger), c.Count)
	}
}

func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	m := s.manifest.Load()
	if m == nil {
		httpapi.Error(w, http.StatusNotFound, httpapi.CodeNotFound,
			"no run manifest registered")
		return
	}
	httpapi.WriteJSON(w, m)
}

// handleEvents streams bus events for as long as the client stays
// connected: one JSON object per line (NDJSON) by default, or Server-Sent
// Events when the client asks for text/event-stream. A slow client's
// backlog is bounded by the subscription buffer — the bus drops the
// oldest events rather than stalling the pipeline.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("sse") == "1"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := s.cfg.bus.Subscribe(eventBuffer)
	defer sub.Close()

	// SSE streams get periodic comment-frame heartbeats so an idle
	// stream survives proxy and load-balancer idle timeouts. NDJSON
	// framing is line-delimited JSON only — never heartbeat it.
	var keepalive <-chan time.Time
	if sse {
		t := time.NewTicker(s.keepAlive)
		defer t.Stop()
		keepalive = t.C
	}

	enc := json.NewEncoder(w)
	for {
		select {
		case e, ok := <-sub.Events():
			if !ok {
				return
			}
			if sse {
				fmt.Fprint(w, "data: ")
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
			flusher.Flush()
		case <-keepalive:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}
