// Package ingest is the fleet-scale front half of the detection
// service: it accepts batches of HPC sampling windows from many remote
// endpoints over HTTP (`POST /api/v1/ingest`), queues them per tenant,
// and classifies them on sharded detection pipelines built on
// internal/parallel — the ingest/detect split that turns the single-host
// replay daemon into a service shape that can absorb traffic from a
// simulated fleet.
//
// Architecture:
//
//	HTTP ingest ──▶ per-tenant bounded queue ──▶ shard worker ──▶ verdicts
//	                  (429 + Retry-After, or          │
//	                   drop-oldest, when full)        ├─ compiled infer program
//	                                                  ├─ per-endpoint alarm smoothing
//	                                                  ├─ per-tenant quality scoreboard
//	                                                  └─ per-tenant drift detection
//
// Every tenant is pinned to exactly one shard (FNV hash), so its windows
// are classified in arrival order by a single goroutine: all per-tenant
// state is single-writer, and because the scoreboard and drift detector
// accumulate commutative counts rotated every rotateEvery windows, the
// per-tenant quality snapshots are byte-identical at any shard count —
// the same determinism contract the rest of the pipeline keeps.
//
// Backpressure is explicit, not implicit: a full tenant queue rejects
// the batch with a QueueFullError (the HTTP layer turns it into
// 429 + Retry-After) unless the tenant opted into drop-oldest, in which
// case the oldest queued windows are evicted and counted. The ingest
// path never blocks a producer on a slow consumer.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/quality"
)

// EventAlarm is published on the bus when a tenant endpoint's smoothed
// verdict stream crosses the alarm threshold (rising edge only):
// Sample is the endpoint id, Class the tenant id, Value the window score.
const EventAlarm = "ingest_alarm"

// ReplayTenant is the tenant reserved for an embedder's own labeled
// replay (`hpcmal serve` enqueues its replayed traces here in process).
// Its scoreboard and drift detector export onto the service's Registry
// and Bus, so their quality.* and drift.* series are the fleet-level
// ones, and HTTP clients may not post to it.
const ReplayTenant = "replay"

// Registry metric names exported by the service (fleet-level aggregates;
// per-tenant instruments stay on a private registry so the /metrics
// surface does not grow with tenant count).
const (
	BatchesMetric        = "ingest.batches"
	WindowsMetric        = "ingest.windows"
	ProcessedMetric      = "ingest.windows_processed"
	DroppedMetric        = "ingest.windows_dropped"
	RejectedMetric       = "ingest.batches_rejected"
	MalwareMetric        = "ingest.malware_windows"
	AlarmsMetric         = "ingest.alarms"
	TenantsMetric        = "ingest.tenants"
	QueuedMetric         = "ingest.queued"
	VerdictLatencyMetric = "ingest.verdict_latency_seconds"
)

// Window is one HPC sampling window submitted by a fleet endpoint.
type Window struct {
	// Endpoint identifies the submitting host within the tenant; it keys
	// the per-endpoint alarm smoother. Empty windows share one smoother.
	Endpoint string `json:"endpoint,omitempty"`
	// Label is the ground-truth class (0 benign, 1 malware) when the
	// submitter knows it — labeled replay and load generators do — which
	// feeds the tenant's detection scoreboard. Omitted means unlabeled:
	// the window is still classified, drift-checked and smoothed, but
	// cannot score the confusion matrix.
	Label *int `json:"label,omitempty"`
	// Values is the window's HPC feature vector, in the event order the
	// detector was trained on.
	Values []float64 `json:"values"`
}

// Batch is the JSON request body of POST /api/v1/ingest.
type Batch struct {
	// Tenant may carry the tenant id when the X-Tenant-ID header and
	// ?tenant= query parameter are absent.
	Tenant string `json:"tenant,omitempty"`
	// Overflow optionally updates the tenant's queue-overflow policy:
	// "reject" (default, 429 on full) or "drop_oldest".
	Overflow string   `json:"overflow,omitempty"`
	Windows  []Window `json:"windows"`
}

// Overflow policies.
const (
	OverflowReject     = "reject"
	OverflowDropOldest = "drop_oldest"
)

// Service limits and detection cadence.
const (
	// maxBatchWindows bounds one request's window count.
	maxBatchWindows = 8192
	// maxTenants bounds the tenant map; excess tenants are rejected with
	// a tenant_limit error.
	maxTenants = 1024
	// maxEndpoints bounds a tenant's alarm-smoother map; windows from
	// excess endpoints are classified but not alarm-smoothed.
	maxEndpoints = 1024
	// rotateEvery is the per-tenant quality/drift epoch length in
	// windows: the sliding scoreboard window is 8 rotations.
	rotateEvery = 4096
	// smootherWindow and smootherThreshold configure each endpoint's
	// majority-vote alarm smoother.
	smootherWindow    = 8
	smootherThreshold = 0.5
)

// Config wires a Service.
type Config struct {
	// Classifier is the trained binary detector. Compilable classifiers
	// run their compiled infer program on the hot path; the rest fall
	// back to interpreted Predict.
	Classifier ml.Classifier
	// Events names the HPC features, in training order; its length is the
	// accepted vector dimension.
	Events []string
	// Baseline, when set, arms a per-tenant drift detector against the
	// train-time distribution sketch.
	Baseline *quality.Baseline
	// Shards is the detection pipeline fan-out (default: the process-wide
	// parallel worker bound). Tenants hash onto shards; per-tenant results
	// are identical at any value.
	Shards int
	// QueueCap bounds each tenant's queue in windows (default 16384).
	QueueCap int
	// Registry receives the fleet-level ingest metrics (default
	// obs.DefaultRegistry).
	Registry *obs.Registry
	// Bus receives ingest_alarm events (default obs.DefaultBus).
	Bus *obs.Bus
	// Tracer, when set, records request-scoped traces across the
	// accept→enqueue→dequeue→infer→quality pipeline: the HTTP layer makes
	// the head-sampling decision per batch and every stage appends spans.
	// nil disables tracing entirely; untraced windows carry only a nil
	// pointer and the hot path stays allocation-free.
	Tracer *obs.ReqTracer
	// Precision selects the detection shards' numeric domain. The zero
	// value (infer.Float64) keeps today's exact compiled path. Int8/Int16
	// deploy fixed-point quantized programs (Calibration required for MAC
	// kernels); a quantized request on a classifier with no compiled
	// kernel is an error — there is no interpreted fixed-point fallback.
	Precision infer.Precision
	// Calibration supplies the rows (typically the training set) that
	// place the quantized input grid. Ignored at Float64.
	Calibration [][]float64
}

func (c *Config) fillDefaults() error {
	if c.Classifier == nil {
		return fmt.Errorf("ingest: nil classifier")
	}
	if len(c.Events) == 0 {
		return fmt.Errorf("ingest: no feature events configured")
	}
	if c.Shards <= 0 {
		c.Shards = parallel.DefaultWorkers()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16384
	}
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry
	}
	if c.Bus == nil {
		c.Bus = obs.DefaultBus
	}
	return nil
}

// QueueFullError reports rejected backpressure: the tenant's queue could
// not take the batch. The HTTP layer renders it as 429 + Retry-After.
type QueueFullError struct {
	Tenant     string
	Queued     int
	Cap        int
	RetryAfter time.Duration
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("ingest: tenant %s queue full (%d/%d windows), retry after %s",
		e.Tenant, e.Queued, e.Cap, e.RetryAfter)
}

// TenantLimitError reports that the tenant map is at capacity.
type TenantLimitError struct{ Limit int }

// Error implements error.
func (e *TenantLimitError) Error() string {
	return fmt.Sprintf("ingest: tenant limit reached (%d)", e.Limit)
}

// ErrStopped is returned by Enqueue after the service's context ended.
var ErrStopped = errors.New("ingest: service stopped")

// queuedWindow is one window in a tenant queue, stamped with its arrival
// time so the verdict latency histogram measures ingest-to-verdict.
type queuedWindow struct {
	endpoint   string
	label      int8 // -1 = unlabeled
	enqueuedNS int64
	values     []float64
	// trace is the request trace every window of a sampled batch shares
	// (nil for the vast unsampled majority: carrying the pointer costs
	// the hot path nothing).
	trace *obs.ActiveTrace
}

// endpointState is one endpoint's alarm smoother (owned by the tenant's
// shard worker; never touched concurrently).
type endpointState struct {
	sm      online.Smoother
	alarmed bool
}

// tenant is one tenant's pipeline: a bounded queue filled by the HTTP
// layer and drained by exactly one shard worker.
type tenant struct {
	id    string
	shard *shard

	mu         sync.Mutex
	queue      []queuedWindow // ring buffer, len == cap == QueueCap
	head, n    int
	dropOldest bool

	// Detection state, owned by the shard worker.
	board       *quality.Scoreboard
	drift       *quality.DriftDetector
	endpoints   map[string]*endpointState
	sinceRotate int

	// Stats, written by both sides; atomics so summaries never race.
	windowsIngested  atomic.Int64
	windowsProcessed atomic.Int64
	windowsDropped   atomic.Int64
	batchesRejected  atomic.Int64
	malwareWindows   atomic.Int64
	alarms           atomic.Int64
	endpointCount    atomic.Int64
}

// shard is one detection worker's work source: the set of tenants
// hashed onto it plus a wake-up channel.
type shard struct {
	notify  chan struct{}
	mu      sync.Mutex
	tenants []*tenant
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

func (sh *shard) tenantList() []*tenant {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tenants
}

// Service is the fleet ingest/detect service.
type Service struct {
	cfg  Config
	prog *infer.Program // nil = interpreted fallback
	dim  int

	mu      sync.RWMutex
	tenants map[string]*tenant
	shards  []*shard

	ctx     context.Context
	started atomic.Bool
	startNS atomic.Int64

	// rotateEvery is the quality/drift epoch length in windows: the
	// rotateEvery constant, shortened only by in-package tests that need
	// rotations inside a short stream.
	rotateEvery int

	// Per-tenant quality/drift instruments export their gauges into this
	// private registry (and drift events into the private bus) so the
	// fleet-level /metrics surface stays O(1) in tenant count.
	tenantReg *obs.Registry
	tenantBus *obs.Bus

	mBatches, mWindows, mProcessed *obs.Counter
	mDropped, mRejected            *obs.Counter
	mMalware, mAlarms              *obs.Counter
	gTenants, gQueued              *obs.Gauge
	hLatency                       *obs.Histogram
	batchesTotal, processedTotal   atomic.Int64
	windowsTotal, droppedTotal     atomic.Int64
	rejectedTotal                  atomic.Int64
	malwareTotal, alarmsTotal      atomic.Int64
	queuedTotal                    atomic.Int64
}

// New builds a service over a trained classifier, compiling it when the
// classifier has a compiled kernel (the hot path the fleet rides).
func New(cfg Config) (*Service, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:         cfg,
		dim:         len(cfg.Events),
		tenants:     make(map[string]*tenant),
		rotateEvery: rotateEvery,
		tenantReg:   obs.NewRegistry(),
		tenantBus:   obs.NewBus(),
	}
	if cfg.Precision != infer.Float64 {
		// Quantized deployment is explicit: no interpreted fallback, and
		// compile failures (no kernel, no calibration, capacity) surface.
		prog, err := infer.Compile(cfg.Classifier,
			infer.WithPrecision(cfg.Precision), infer.WithCalibration(cfg.Calibration))
		if err != nil {
			return nil, fmt.Errorf("ingest: compiling %s at %s: %w",
				cfg.Classifier.Name(), cfg.Precision, err)
		}
		s.prog = prog
	} else {
		prog, err := infer.Compile(cfg.Classifier)
		switch {
		case err == nil:
			s.prog = prog
		case errors.Is(err, infer.ErrNotCompilable):
			// Interpreted fallback.
		default:
			return nil, fmt.Errorf("ingest: compiling %s: %w", cfg.Classifier.Name(), err)
		}
	}
	if s.prog != nil && s.prog.Dim() != s.dim {
		return nil, fmt.Errorf("ingest: classifier dim %d != %d events",
			s.prog.Dim(), s.dim)
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{notify: make(chan struct{}, 1)})
	}
	r := cfg.Registry
	s.mBatches = r.Counter(BatchesMetric)
	s.mWindows = r.Counter(WindowsMetric)
	s.mProcessed = r.Counter(ProcessedMetric)
	s.mDropped = r.Counter(DroppedMetric)
	s.mRejected = r.Counter(RejectedMetric)
	s.mMalware = r.Counter(MalwareMetric)
	s.mAlarms = r.Counter(AlarmsMetric)
	s.gTenants = r.Gauge(TenantsMetric)
	s.gQueued = r.Gauge(QueuedMetric)
	s.hLatency = r.Histogram(VerdictLatencyMetric, obs.TimeBuckets)
	return s, nil
}

// Tracer returns the request tracer the service records into (nil when
// tracing is disabled).
func (s *Service) Tracer() *obs.ReqTracer { return s.cfg.Tracer }

// Program reports the compiled program's name (empty when interpreted).
func (s *Service) Program() string {
	if s.prog == nil {
		return ""
	}
	return s.prog.Name()
}

// ProgramSpec returns the deployed program's introspection record
// (precision, widths, scale table, agreement). ok is false on the
// interpreted fallback, which has no compiled spec.
func (s *Service) ProgramSpec() (spec infer.ProgramSpec, ok bool) {
	if s.prog == nil {
		return infer.ProgramSpec{}, false
	}
	return s.prog.Spec(), true
}

// Start launches the shard workers on the parallel engine and returns
// immediately; they drain tenant queues until ctx ends. Enqueue before
// Start queues windows that the workers pick up once running.
func (s *Service) Start(ctx context.Context) {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.ctx = ctx
	s.startNS.Store(time.Now().UnixNano())
	go parallel.ForEach(
		parallel.Options{Name: "ingest.shards", Workers: len(s.shards), Context: ctx},
		len(s.shards), func(i int) error {
			s.runShard(ctx, i)
			return nil
		})
	obs.Log().Info("ingest service started",
		"shards", len(s.shards), "queue_cap", s.cfg.QueueCap,
		"program", s.Program())
}

// Running reports whether Start has been called and the context is live.
func (s *Service) Running() bool {
	if s == nil || !s.started.Load() {
		return false
	}
	return s.ctx.Err() == nil
}

// shardFor pins a tenant id onto a shard.
func (s *Service) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// getTenant returns (creating on first sight) the tenant's pipeline.
func (s *Service) getTenant(id string) (*tenant, error) {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[id]; t != nil {
		return t, nil
	}
	if len(s.tenants) >= maxTenants {
		return nil, &TenantLimitError{Limit: maxTenants}
	}
	reg, bus := s.tenantReg, s.tenantBus
	if id == ReplayTenant {
		reg, bus = s.cfg.Registry, s.cfg.Bus
	}
	t = &tenant{
		id:        id,
		shard:     s.shardFor(id),
		queue:     make([]queuedWindow, s.cfg.QueueCap),
		board:     quality.NewScoreboard(quality.Config{Registry: reg}),
		endpoints: make(map[string]*endpointState),
	}
	if s.cfg.Baseline != nil {
		d, err := quality.NewDriftDetector(s.cfg.Baseline,
			quality.DriftConfig{Registry: reg, Bus: bus})
		if err != nil {
			return nil, fmt.Errorf("ingest: tenant %s drift detector: %w", id, err)
		}
		t.drift = d
	}
	s.tenants[id] = t
	t.shard.mu.Lock()
	t.shard.tenants = append(t.shard.tenants, t)
	t.shard.mu.Unlock()
	s.gTenants.Set(float64(len(s.tenants)))
	return t, nil
}

// Accepted is Enqueue's receipt: how much of the batch was queued, what
// drop-oldest eviction cost, and the queue depth afterwards.
type Accepted struct {
	Tenant   string `json:"tenant"`
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped"`
	Queued   int    `json:"queued"`
	// TraceID echoes the request trace id when the batch was sampled, so
	// clients can join their observed latency on /api/v1/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// AddTenant creates the tenant's pipeline now instead of at its first
// batch, so its quality and drift instruments exist before traffic does.
func (s *Service) AddTenant(id string) error {
	_, err := s.getTenant(id)
	return err
}

// Enqueue queues ws on the tenant's pipeline under its overflow policy.
// overflow "" keeps the tenant's current policy. It checks only each
// window's dimension (the HTTP layer validates the rest of the wire
// schema) and rejects the whole batch when one window has the wrong
// length. It returns a *QueueFullError when the tenant queue cannot take
// the batch under the reject policy, a *TenantLimitError for one tenant
// too many, or ErrStopped after the service's context ended.
func (s *Service) Enqueue(tenantID, overflow string, ws []Window) (Accepted, error) {
	return s.EnqueueTraced(tenantID, overflow, ws, nil)
}

// EnqueueTraced is Enqueue carrying the batch's request trace: every
// queued window is stamped with at so the drain side can close the
// dequeue/infer/quality spans, and the trace's pending count grows by the
// accepted window count before any of them becomes visible to a shard.
// at == nil (the unsampled fast path) behaves exactly like Enqueue.
func (s *Service) EnqueueTraced(tenantID, overflow string, ws []Window, at *obs.ActiveTrace) (Accepted, error) {
	if s.started.Load() && s.ctx.Err() != nil {
		return Accepted{}, ErrStopped
	}
	// A window of the wrong length would fail its whole drain chunk.
	for i := range ws {
		if len(ws[i].Values) != s.dim {
			return Accepted{}, fmt.Errorf("ingest: window %d has %d features, detector expects %d",
				i, len(ws[i].Values), s.dim)
		}
	}
	// The enqueue stage starts before the tenant lookup: a tenant's first
	// batch allocates its queue and detectors there, and that time must
	// fall inside a span, not between the accept and dequeue spans.
	now := time.Now().UnixNano()
	t, err := s.getTenant(tenantID)
	if err != nil {
		if _, ok := err.(*TenantLimitError); ok {
			s.mRejected.Inc()
			s.rejectedTotal.Add(1)
		}
		return Accepted{}, err
	}
	capN := s.cfg.QueueCap

	t.mu.Lock()
	switch overflow {
	case OverflowDropOldest:
		t.dropOldest = true
	case OverflowReject:
		t.dropOldest = false
	}
	res := Accepted{Tenant: tenantID}
	incoming := ws
	// A single batch larger than the whole queue keeps only its newest
	// windows under drop-oldest (the queue is a window into the present).
	if len(incoming) > capN {
		if !t.dropOldest {
			queued := t.n
			t.mu.Unlock()
			t.batchesRejected.Add(1)
			s.mRejected.Inc()
			s.rejectedTotal.Add(1)
			return Accepted{}, &QueueFullError{Tenant: tenantID, Queued: queued,
				Cap: capN, RetryAfter: s.retryAfter(queued)}
		}
		res.Dropped += len(incoming) - capN
		incoming = incoming[len(incoming)-capN:]
	}
	if t.n+len(incoming) > capN {
		if !t.dropOldest {
			queued := t.n
			t.mu.Unlock()
			t.batchesRejected.Add(1)
			s.mRejected.Inc()
			s.rejectedTotal.Add(1)
			return Accepted{}, &QueueFullError{Tenant: tenantID, Queued: queued,
				Cap: capN, RetryAfter: s.retryAfter(queued)}
		}
		evict := t.n + len(incoming) - capN
		if s.cfg.Tracer != nil {
			// Evicted windows may belong to in-flight traces; settle their
			// pending counts (and mark the loss) or those traces never
			// commit. Off the untraced path this loop never runs.
			for i := 0; i < evict; i++ {
				if tr := t.queue[(t.head+i)%capN].trace; tr != nil {
					tr.SetError("windows evicted by drop_oldest")
					tr.FinishPending(1, now)
				}
			}
		}
		t.head = (t.head + evict) % capN
		t.n -= evict
		res.Dropped += evict
	}
	// Grow the trace's pending count before any stamped window becomes
	// visible to a shard worker, so the trace cannot commit mid-batch.
	at.AddPending(len(incoming))
	for _, w := range ws[len(ws)-len(incoming):] {
		label := int8(-1)
		if w.Label != nil {
			label = int8(*w.Label)
		}
		t.queue[(t.head+t.n)%capN] = queuedWindow{
			endpoint: w.Endpoint, label: label,
			enqueuedNS: now, values: w.Values, trace: at,
		}
		t.n++
	}
	res.Accepted = len(incoming)
	res.Queued = t.n
	t.mu.Unlock()

	if at != nil {
		at.AddSpan("ingest.enqueue", now, time.Now().UnixNano(),
			obs.ReqAttr{Key: "accepted", Value: float64(res.Accepted)},
			obs.ReqAttr{Key: "dropped", Value: float64(res.Dropped)},
			obs.ReqAttr{Key: "queued", Value: float64(res.Queued)})
	}

	t.windowsIngested.Add(int64(res.Accepted))
	if res.Dropped > 0 {
		t.windowsDropped.Add(int64(res.Dropped))
		s.mDropped.Add(int64(res.Dropped))
		s.droppedTotal.Add(int64(res.Dropped))
	}
	s.mBatches.Inc()
	s.batchesTotal.Add(1)
	s.mWindows.Add(int64(res.Accepted))
	s.windowsTotal.Add(int64(res.Accepted))
	s.gQueued.Set(float64(s.queuedTotal.Add(int64(res.Accepted - res.Dropped))))
	t.shard.wake()
	return res, nil
}

// retryAfter estimates how long a rejected producer should back off:
// the queue backlog divided by the observed fleet-wide drain rate,
// clamped to [1s, 30s].
func (s *Service) retryAfter(queued int) time.Duration {
	rate := s.drainRate()
	if rate <= 0 {
		return time.Second
	}
	d := time.Duration(float64(queued) / rate * float64(time.Second))
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// drainRate is the observed fleet-wide processing rate in windows/sec
// since Start (0 before any window was processed).
func (s *Service) drainRate() float64 {
	start := s.startNS.Load()
	if start == 0 {
		return 0
	}
	elapsed := float64(time.Now().UnixNano()-start) / float64(time.Second)
	if elapsed <= 0 {
		return 0
	}
	return float64(s.processedTotal.Load()) / elapsed
}

// drainChunk bounds how many windows one tenant surrenders per worker
// turn, so a hot tenant cannot starve its shard siblings.
const drainChunk = 512

// runShard is one detection worker: it drains the queues of every
// tenant pinned to its shard, round-robin, until ctx ends.
func (s *Service) runShard(ctx context.Context, idx int) {
	sh := s.shards[idx]
	scratch := newShardScratch(s, drainChunk)
	scratch.shard = idx
	for {
		worked := true
		for worked {
			worked = false
			for _, t := range sh.tenantList() {
				if n := s.drainTenant(t, scratch); n > 0 {
					worked = true
				}
				if ctx.Err() != nil {
					return
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-sh.notify:
		}
	}
}

// shardScratch is one worker's reusable classification buffers: the
// steady-state hot path allocates nothing per window.
type shardScratch struct {
	ws    []queuedWindow
	X     [][]float64
	dst   []int
	proba [][]float64
	shard int
}

func newShardScratch(s *Service, chunk int) *shardScratch {
	sc := &shardScratch{
		ws:  make([]queuedWindow, 0, chunk),
		X:   make([][]float64, 0, chunk),
		dst: make([]int, chunk),
	}
	if s.prog != nil && s.prog.HasProba() {
		sc.proba = make([][]float64, chunk)
		for i := range sc.proba {
			sc.proba[i] = make([]float64, s.prog.NumClasses())
		}
	}
	return sc
}

// drainTenant claims up to one chunk of the tenant's queue and runs it
// through the detection pipeline in arrival order. Returns how many
// windows it processed.
func (s *Service) drainTenant(t *tenant, sc *shardScratch) int {
	capN := s.cfg.QueueCap
	t.mu.Lock()
	n := t.n
	if n == 0 {
		t.mu.Unlock()
		return 0
	}
	depth := t.n
	if n > drainChunk {
		n = drainChunk
	}
	traced := false
	sc.ws = sc.ws[:0]
	for i := 0; i < n; i++ {
		w := t.queue[(t.head+i)%capN]
		if w.trace != nil {
			traced = true
		}
		sc.ws = append(sc.ws, w)
	}
	t.head = (t.head + n) % capN
	t.n -= n
	t.mu.Unlock()

	// Timestamps for the per-stage spans are taken only when this chunk
	// carries at least one sampled window: the unsampled path adds no
	// clock reads and no branches beyond one nil check per window.
	var dequeueNS int64
	if traced {
		dequeueNS = time.Now().UnixNano()
	}

	sc.X = sc.X[:0]
	for i := range sc.ws {
		sc.X = append(sc.X, sc.ws[i].values)
	}
	dst := sc.dst[:n]
	var probClf ml.ProbClassifier
	if s.prog != nil {
		if err := s.prog.Predict(dst, sc.X); err != nil {
			// A trained program only fails on shape mismatch, which
			// validation excludes; log and drop the chunk rather than spin.
			obs.Log().Error("ingest: compiled predict failed", "err", err)
			if traced {
				endNS := time.Now().UnixNano()
				for i := range sc.ws {
					if tr := sc.ws[i].trace; tr != nil {
						tr.SetError(err.Error())
						tr.FinishPending(1, endNS)
					}
				}
			}
			return n
		}
		if sc.proba != nil {
			s.prog.Proba(sc.proba[:n], sc.X)
		}
	} else {
		for i := range sc.X {
			dst[i] = s.cfg.Classifier.Predict(sc.X[i])
		}
		probClf, _ = s.cfg.Classifier.(ml.ProbClassifier)
	}

	now := time.Now().UnixNano()
	var malware, alarms int64
	for i := range sc.ws {
		w := &sc.ws[i]
		pred := dst[i]
		score := float64(pred)
		if sc.proba != nil {
			score = malwareScore(sc.proba[i], pred)
		} else if probClf != nil {
			if p := probClf.Proba(w.values); len(p) > 0 {
				score = malwareScore(p, pred)
			}
		}
		if pred == 1 {
			malware++
		}
		if w.label >= 0 {
			t.board.Observe(int(w.label), pred, score)
		}
		if t.drift != nil {
			t.drift.Observe(w.values)
		}
		if es := t.endpoint(w.endpoint); es != nil {
			raised := es.sm.Observe(pred)
			if raised && !es.alarmed {
				alarms++
				// Tail rule: a trace whose window tripped the online alarm
				// is pinned against ring eviction (nil-safe no-op when the
				// window is untraced).
				w.trace.Keep("alarm")
				s.cfg.Bus.Publish(obs.Event{Type: EventAlarm,
					Sample: w.endpoint, Class: t.id, Value: score})
			}
			es.alarmed = raised
		}
		t.sinceRotate++
		if t.sinceRotate >= s.rotateEvery {
			t.board.Advance()
			if t.drift != nil {
				t.drift.Advance()
			}
			t.sinceRotate = 0
		}
		lat := float64(now-w.enqueuedNS) / float64(time.Second)
		if w.trace != nil {
			s.hLatency.ObserveExemplar(lat, w.trace.TraceID(), now/1e6)
		} else {
			s.hLatency.Observe(lat)
		}
	}
	if traced {
		s.emitDrainSpans(sc, n, depth, dequeueNS, now)
	}
	t.windowsProcessed.Add(int64(n))
	s.mProcessed.Add(int64(n))
	s.processedTotal.Add(int64(n))
	if malware > 0 {
		t.malwareWindows.Add(malware)
		s.mMalware.Add(malware)
		s.malwareTotal.Add(malware)
	}
	if alarms > 0 {
		t.alarms.Add(alarms)
		s.mAlarms.Add(alarms)
		s.alarmsTotal.Add(alarms)
	}
	s.gQueued.Set(float64(s.queuedTotal.Add(int64(-n))))
	return n
}

// emitDrainSpans closes the drain-side spans for every sampled trace in
// the chunk: one dequeue/infer/quality span triple per trace (windows of
// one batch are consecutive in arrival order, so traces group into runs)
// and the pending-count settlement that commits a trace once its last
// window has a verdict. Only called for chunks that carry a trace.
func (s *Service) emitDrainSpans(sc *shardScratch, n, depth int, dequeueNS, inferEndNS int64) {
	qEndNS := time.Now().UnixNano()
	var at *obs.ActiveTrace
	count := 0
	firstEnq := int64(0)
	flush := func() {
		if at == nil || count == 0 {
			return
		}
		at.AddSpan("ingest.dequeue", firstEnq, dequeueNS,
			obs.ReqAttr{Key: "queue_depth", Value: float64(depth)},
			obs.ReqAttr{Key: "shard", Value: float64(sc.shard)})
		at.AddSpan("ingest.infer", dequeueNS, inferEndNS,
			obs.ReqAttr{Key: "batch", Value: float64(n)},
			obs.ReqAttr{Key: "shard", Value: float64(sc.shard)})
		at.AddSpan("ingest.quality", inferEndNS, qEndNS,
			obs.ReqAttr{Key: "windows", Value: float64(count)})
		at.FinishPending(count, qEndNS)
	}
	for i := 0; i < n; i++ {
		w := &sc.ws[i]
		if w.trace != at {
			flush()
			at, count, firstEnq = w.trace, 0, w.enqueuedNS
		}
		if w.trace != nil {
			count++
		}
	}
	flush()
}

// endpoint returns the window's alarm-smoother state, creating it up to
// the per-tenant cap (nil beyond it: the window is classified and
// scored, just not alarm-smoothed).
func (t *tenant) endpoint(id string) *endpointState {
	if es, ok := t.endpoints[id]; ok {
		return es
	}
	if len(t.endpoints) >= maxEndpoints {
		return nil
	}
	es := &endpointState{sm: &online.MajorityVoter{
		Window: smootherWindow, Threshold: smootherThreshold}}
	es.sm.Reset()
	t.endpoints[id] = es
	t.endpointCount.Store(int64(len(t.endpoints)))
	return es
}

// malwareScore reduces a probability vector to the scoreboard's score:
// the malware-class probability for the binary detector.
func malwareScore(p []float64, pred int) float64 {
	if len(p) == 2 {
		return p[1]
	}
	if pred >= 0 && pred < len(p) {
		return p[pred]
	}
	return float64(pred)
}

// TenantSummary is one tenant's row of GET /api/v1/tenants.
type TenantSummary struct {
	ID               string `json:"id"`
	Queued           int    `json:"queued"`
	QueueCap         int    `json:"queue_cap"`
	Overflow         string `json:"overflow"`
	Endpoints        int64  `json:"endpoints"`
	WindowsIngested  int64  `json:"windows_ingested"`
	WindowsProcessed int64  `json:"windows_processed"`
	WindowsDropped   int64  `json:"windows_dropped"`
	BatchesRejected  int64  `json:"batches_rejected"`
	MalwareWindows   int64  `json:"malware_windows"`
	Alarms           int64  `json:"alarms"`
}

func (t *tenant) summary(capN int) TenantSummary {
	t.mu.Lock()
	queued := t.n
	overflow := OverflowReject
	if t.dropOldest {
		overflow = OverflowDropOldest
	}
	t.mu.Unlock()
	return TenantSummary{
		ID: t.id, Queued: queued, QueueCap: capN, Overflow: overflow,
		Endpoints:        t.endpointCount.Load(),
		WindowsIngested:  t.windowsIngested.Load(),
		WindowsProcessed: t.windowsProcessed.Load(),
		WindowsDropped:   t.windowsDropped.Load(),
		BatchesRejected:  t.batchesRejected.Load(),
		MalwareWindows:   t.malwareWindows.Load(),
		Alarms:           t.alarms.Load(),
	}
}

// Tenants lists every tenant summary, sorted by id.
func (s *Service) Tenants() []TenantSummary {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	out := make([]TenantSummary, 0, len(list))
	for _, t := range list {
		out = append(out, t.summary(s.cfg.QueueCap))
	}
	return out
}

// Tenant returns one tenant's summary (false when the tenant is unknown).
func (s *Service) Tenant(id string) (TenantSummary, bool) {
	t := s.lookupTenant(id)
	if t == nil {
		return TenantSummary{}, false
	}
	return t.summary(s.cfg.QueueCap), true
}

// lookupTenant returns the tenant or nil.
func (s *Service) lookupTenant(id string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[id]
}

// TenantQuality returns the tenant's detection scoreboard snapshot
// (false when the tenant is unknown). Snapshots are byte-identical at
// any shard count for the same per-tenant window stream.
func (s *Service) TenantQuality(id string) (quality.QualitySnapshot, bool) {
	t := s.lookupTenant(id)
	if t == nil {
		return quality.QualitySnapshot{}, false
	}
	return t.board.Snapshot(), true
}

// TenantDrift returns the tenant's drift snapshot. ok is false for an
// unknown tenant; armed is false when the service has no baseline.
func (s *Service) TenantDrift(id string) (snap quality.DriftSnapshot, ok, armed bool) {
	t := s.lookupTenant(id)
	if t == nil {
		return quality.DriftSnapshot{}, false, s.cfg.Baseline != nil
	}
	if t.drift == nil {
		return quality.DriftSnapshot{}, true, false
	}
	return t.drift.Snapshot(), true, true
}

// Stats is the service-wide roll-up served by GET /api/v1/ingest: the
// load-test harness reads sustained windows/sec and ingest-to-verdict
// latency percentiles from here.
type Stats struct {
	Started          bool    `json:"started"`
	Program          string  `json:"program,omitempty"`
	Precision        string  `json:"precision,omitempty"`
	Shards           int     `json:"shards"`
	QueueCap         int     `json:"queue_cap"`
	Tenants          int     `json:"tenants"`
	Queued           int64   `json:"queued"`
	BatchesIngested  int64   `json:"batches_ingested"`
	WindowsIngested  int64   `json:"windows_ingested"`
	WindowsProcessed int64   `json:"windows_processed"`
	WindowsDropped   int64   `json:"windows_dropped"`
	BatchesRejected  int64   `json:"batches_rejected"`
	MalwareWindows   int64   `json:"malware_windows"`
	Alarms           int64   `json:"alarms"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	// WindowsPerSec is the sustained processing rate since Start.
	WindowsPerSec float64 `json:"windows_per_sec"`
	// Verdict latency percentiles (ingest to classified), milliseconds.
	VerdictLatencyP50MS float64 `json:"verdict_latency_p50_ms"`
	VerdictLatencyP99MS float64 `json:"verdict_latency_p99_ms"`
}

// Stats freezes the service-wide counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	tenants := len(s.tenants)
	s.mu.RUnlock()
	st := Stats{
		Started:          s.started.Load(),
		Program:          s.Program(),
		Shards:           len(s.shards),
		QueueCap:         s.cfg.QueueCap,
		Tenants:          tenants,
		Queued:           s.queuedTotal.Load(),
		BatchesIngested:  s.batchesTotal.Load(),
		WindowsIngested:  s.windowsTotal.Load(),
		WindowsProcessed: s.processedTotal.Load(),
		WindowsDropped:   s.droppedTotal.Load(),
		BatchesRejected:  s.rejectedTotal.Load(),
		MalwareWindows:   s.malwareTotal.Load(),
		Alarms:           s.alarmsTotal.Load(),
	}
	if spec, ok := s.ProgramSpec(); ok {
		st.Precision = spec.Precision.String()
	}
	if start := s.startNS.Load(); start > 0 {
		st.UptimeSeconds = float64(time.Now().UnixNano()-start) / float64(time.Second)
		if st.UptimeSeconds > 0 {
			st.WindowsPerSec = float64(st.WindowsProcessed) / st.UptimeSeconds
		}
	}
	h := s.cfg.Registry.Snapshot().Histograms[VerdictLatencyMetric]
	if p := h.Quantile(0.50); !math.IsNaN(p) {
		st.VerdictLatencyP50MS = p * 1000
	}
	if p := h.Quantile(0.99); !math.IsNaN(p) {
		st.VerdictLatencyP99MS = p * 1000
	}
	return st
}

// Drained reports whether every queued window has been processed —
// the load harness and tests poll it to quiesce before reading quality.
func (s *Service) Drained() bool { return s.queuedTotal.Load() == 0 }
