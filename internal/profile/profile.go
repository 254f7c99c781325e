// Package profile is the continuous, low-overhead profiler embedded in
// every long-running command. A background sampler takes a short CPU
// profile each interval (the duty cycle — e.g. 10 s of profiling out of
// every 60 s keeps steady-state overhead near the profiling cost × 1/6)
// plus instantaneous heap and goroutine snapshots, and stores the
// gzipped pprof blobs with parsed top-N summaries in a byte-budgeted
// obs.Ring. Firing alerts and online-detector alarms on the event bus
// trigger immediate captures, pinned in the ring, so the profile from
// the moment an incident began is retrievable at GET /api/v1/profiles
// long after interval captures have been evicted. A diff engine
// (diff.go) compares consecutive CPU and heap summaries and publishes
// profile.regression bus events when a function's flat share grows past
// a threshold, closing the loop with internal/alert and
// internal/flightrec.
//
// The runtime allows only one CPU profile at a time process-wide, so
// every CPU-profile starter in the program — this sampler, the
// on-demand /debug/pprof/profile endpoint, and the -cpuprofile flag —
// shares the TryAcquireCPU gate; losers skip (sampler) or 409
// (endpoint) instead of racing runtime/pprof's error path.
package profile

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Profile types stored in the ring.
const (
	TypeCPU       = "cpu"
	TypeHeap      = "heap"
	TypeGoroutine = "goroutine"
)

// Trigger values recorded on captures.
const (
	// TriggerInterval marks background duty-cycle captures.
	TriggerInterval = "interval"
	// TriggerManual marks captures requested through TriggerCapture
	// without a bus event (e.g. tests, future admin endpoints).
	TriggerManual = "manual"
)

// EventRegression is the bus event type published when the diff engine
// sees a function's flat share grow past the threshold.
const EventRegression = "profile.regression"

// Registry metric names recorded by the profiler.
const (
	// RingBytesMetric gauges the summed blob bytes currently held.
	RingBytesMetric = "profile.ring_bytes"
	// RingCapturesMetric gauges the number of captures currently held.
	RingCapturesMetric = "profile.ring_captures"
	// DroppedMetric counts captures evicted by the byte budget.
	DroppedMetric = "profile.dropped"
	// RegressionsMetric counts diff-engine regressions published.
	RegressionsMetric = "profile.regressions"
	// ErrorsMetric counts failed or skipped capture attempts (CPU gate
	// busy, runtime/pprof errors).
	ErrorsMetric = "profile.errors"
	// CaptureMSMetric is a histogram of capture wall time (snapshot
	// types only — CPU captures deliberately *are* their duty window).
	CaptureMSMetric = "profile.capture_ms"
)

// cpuGate serializes CPU profiling process-wide (runtime/pprof allows
// one). It deliberately lives outside any Profiler instance: the
// -cpuprofile flag and /debug/pprof/profile must contend with the
// sampler through the same gate.
var cpuGate atomic.Bool

// TryAcquireCPU attempts to claim the process-wide CPU-profiling slot.
// It returns false if a CPU profile is already being taken; callers that
// get true must call ReleaseCPU when their profile stops.
func TryAcquireCPU() bool { return cpuGate.CompareAndSwap(false, true) }

// ReleaseCPU releases the slot claimed by TryAcquireCPU.
func ReleaseCPU() { cpuGate.Store(false) }

// Config parameterizes a Profiler. Zero values get defaults.
type Config struct {
	// Interval is the spacing between background capture cycles.
	// Default 60s.
	Interval time.Duration
	// Duty is how long each cycle's CPU profile runs. Default 10s,
	// clamped to Interval.
	Duty time.Duration
	// Budget caps the summed blob bytes held in the ring. Default 8 MiB.
	Budget int64
	// Registry receives the profiler's metrics. Default obs.DefaultRegistry.
	Registry *obs.Registry
	// Bus is watched for trigger events and receives regression events.
	// Default obs.DefaultBus.
	Bus *obs.Bus
	// Runtime, when set, is refreshed at the start of every cycle so
	// runtime/metrics gauges stay live even in commands without a tsdb
	// scraper driving the collector.
	Runtime *obs.RuntimeCollector
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 60 * time.Second
	}
	if c.Duty <= 0 {
		c.Duty = 10 * time.Second
	}
	if c.Duty > c.Interval {
		c.Duty = c.Interval
	}
	if c.Budget <= 0 {
		c.Budget = 8 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry
	}
	if c.Bus == nil {
		c.Bus = obs.DefaultBus
	}
	return c
}

// Capture and diff settings.
const (
	// topN is the summary depth kept per capture.
	topN = 10
	// regressionPts is the flat-share growth (percentage points) between
	// consecutive captures that publishes a regression.
	regressionPts = 10
)

// snapshotTypes are the instantaneous profile types captured each cycle
// alongside CPU. The mutex and block profiles stay out: nothing sets
// their sampling rates, so they never hold a sample, and turning the
// rates on would sample every contended lock on the ingest path.
var snapshotTypes = []string{TypeHeap, TypeGoroutine}

// capture is one stored profile: immutable metadata plus the raw
// (gzipped pprof) blob.
type capture struct {
	info CaptureInfo
	blob []byte
}

// CaptureInfo is the API-visible metadata of one capture.
type CaptureInfo struct {
	ID string `json:"id"`
	// Type is one of "cpu", "heap", "goroutine".
	Type string `json:"type"`
	// Trigger records why the capture happened: "interval" for the
	// background duty cycle, otherwise the bus event type ("alert",
	// "alarm") or "manual".
	Trigger    string `json:"trigger"`
	TimeUnixMS int64  `json:"t_ms"`
	SizeBytes  int    `json:"size_bytes"`
	// Pinned captures survive ring eviction ahead of interval captures.
	Pinned bool `json:"pinned,omitempty"`
	// Summary is the parsed top-N view; nil when parsing failed.
	Summary *Summary `json:"summary,omitempty"`
}

// Profiler owns the capture ring and the background sampler. All
// methods are safe for concurrent use and safe on a nil receiver, so
// callers can wire it unconditionally and leave it nil when disabled.
type Profiler struct {
	cfg Config

	mu       sync.Mutex
	ring     *obs.Ring[capture] // byte-budgeted; triggered captures pinned
	seq      int64
	prev     map[string]*Summary  // last summary per diffed type
	counts   map[string]int64     // "type|trigger" -> captures
	lastTrig map[string]time.Time // per-reason cooldown clocks
	pending  []string             // queued trigger reasons, deduped
	regress  int64
	errors   int64

	// trigSig wakes the run loop when pending gains a reason; a signal
	// arriving mid-duty promotes an in-flight interval capture instead.
	// Cooldowns are per reason, not global: a once-per-transition "alert"
	// event must not be starved by the high-frequency "alarm" stream.
	trigSig chan struct{}

	mDropped *obs.Counter
	mRegress *obs.Counter
	mErrors  *obs.Counter
	gBytes   *obs.Gauge
	gCount   *obs.Gauge
	hCapture *obs.Histogram
}

// New returns a Profiler; call Run (or Start) to begin sampling.
func New(cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	p := &Profiler{
		cfg:      cfg,
		ring:     obs.NewRing[capture](0, cfg.Budget),
		prev:     map[string]*Summary{},
		counts:   map[string]int64{},
		lastTrig: map[string]time.Time{},
		trigSig:  make(chan struct{}, 1),
	}
	p.mDropped = cfg.Registry.Counter(DroppedMetric)
	p.mRegress = cfg.Registry.Counter(RegressionsMetric)
	p.mErrors = cfg.Registry.Counter(ErrorsMetric)
	p.gBytes = cfg.Registry.Gauge(RingBytesMetric)
	p.gCount = cfg.Registry.Gauge(RingCapturesMetric)
	p.hCapture = cfg.Registry.Histogram(CaptureMSMetric,
		[]float64{1, 5, 10, 50, 100, 500, 1000, 5000, 15000})
	return p
}

// Start runs the sampler in a goroutine and returns a stop function
// that blocks until the in-flight cycle (if any) finishes.
func (p *Profiler) Start() (stop func()) {
	if p == nil {
		return func() {}
	}
	done := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(done)
		p.run(quit)
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// run is the sampler loop: an interval ticker, immediate trigger
// requests, and a bus watcher feeding those requests.
func (p *Profiler) run(quit <-chan struct{}) {
	sub := p.cfg.Bus.Subscribe(64)
	defer sub.Close()
	go p.watchBus(quit, sub)

	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	// First cycle runs immediately so short-lived daemons still get at
	// least one capture set and the Latest() incident embed has data.
	p.cycle(quit, TriggerInterval, false)
	for {
		select {
		case <-quit:
			return
		case <-tick.C:
			p.cycle(quit, TriggerInterval, false)
		case <-p.trigSig:
		}
		// Drain every queued trigger reason — a mid-cycle promotion may
		// have consumed the signal while other reasons were still queued.
		for {
			reason, ok := p.nextPending()
			if !ok {
				break
			}
			p.cycle(quit, reason, true)
		}
	}
}

// nextPending pops the oldest queued trigger reason.
func (p *Profiler) nextPending() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return "", false
	}
	reason := p.pending[0]
	p.pending = p.pending[1:]
	return reason, true
}

func (p *Profiler) watchBus(quit <-chan struct{}, sub *obs.Subscription) {
	for {
		select {
		case <-quit:
			return
		case e, ok := <-sub.Events():
			if !ok {
				return
			}
			// Online-detector alarms and firing alerts force an
			// immediate pinned capture cycle.
			if e.Type == "alarm" || e.Type == "alert" {
				p.TriggerCapture(e.Type)
			}
		}
	}
}

// TriggerCapture requests an immediate pinned capture cycle attributed
// to reason (e.g. "alert"). It never blocks: requests inside the
// reason's cooldown window (one Interval, so an alarm storm cannot turn
// the sampler always-on), or while the same reason is already queued,
// return false. Cooldowns are tracked per reason so a rare rising-edge
// "alert" is never starved by a storm of per-window "alarm" events. A
// request landing while an interval CPU capture is in flight promotes
// that capture to the new trigger instead of starting another; one
// landing during a triggered capture gets its own cycle after it.
func (p *Profiler) TriggerCapture(reason string) bool {
	if p == nil {
		return false
	}
	if reason == "" {
		reason = TriggerManual
	}
	p.mu.Lock()
	now := time.Now()
	if last, ok := p.lastTrig[reason]; ok && now.Sub(last) < p.cfg.Interval {
		p.mu.Unlock()
		return false
	}
	for _, queued := range p.pending {
		if queued == reason {
			p.mu.Unlock()
			return false
		}
	}
	p.lastTrig[reason] = now
	p.pending = append(p.pending, reason)
	p.mu.Unlock()
	select {
	case p.trigSig <- struct{}{}:
	default: // the run loop drains pending fully per signal
	}
	return true
}

// CycleNow runs one full capture cycle synchronously — the testing and
// admin entry point. trigger "" means TriggerInterval.
func (p *Profiler) CycleNow(trigger string) {
	if p == nil {
		return
	}
	if trigger == "" {
		trigger = TriggerInterval
	}
	p.cycle(nil, trigger, trigger != TriggerInterval)
}

// cycle refreshes runtime gauges, takes one CPU duty-window profile and
// the snapshotTypes, then runs the diff engine.
func (p *Profiler) cycle(quit <-chan struct{}, trigger string, pinned bool) {
	if p.cfg.Runtime != nil {
		p.cfg.Runtime.Update()
	}
	p.captureCPU(quit, trigger, pinned)
	for _, typ := range snapshotTypes {
		p.captureSnapshot(typ, trigger, pinned)
	}
}

func (p *Profiler) captureCPU(quit <-chan struct{}, trigger string, pinned bool) {
	if !TryAcquireCPU() {
		// -cpuprofile or an on-demand /debug/pprof/profile holds the
		// slot; skip this window rather than queue behind it.
		p.countError()
		return
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		ReleaseCPU()
		p.countError()
		return
	}
	// Sleep out the duty window, but stay receptive: a trigger request
	// arriving mid-window promotes an interval capture (it already covers
	// the moment the alert fired), and quit ends the window early so
	// shutdown never waits out a 10 s duty. A triggered window keeps its
	// reason: later triggers stay queued for the run loop, so an alarm
	// storm cannot relabel an alert's capture.
	var trig <-chan struct{}
	if !pinned {
		trig = p.trigSig
	}
	deadline := time.NewTimer(p.cfg.Duty)
	defer deadline.Stop()
wait:
	for {
		select {
		case <-quit:
			break wait
		case <-trig:
			// The in-flight window already covers the moment the trigger
			// fired; promote it instead of starting another capture.
			if reason, ok := p.nextPending(); ok {
				trigger, pinned = reason, true
				trig = nil
			}
		case <-deadline.C:
			break wait
		}
	}
	pprof.StopCPUProfile()
	ReleaseCPU()
	p.store(TypeCPU, trigger, pinned, buf.Bytes())
}

func (p *Profiler) captureSnapshot(typ, trigger string, pinned bool) {
	prof := pprof.Lookup(typ)
	if prof == nil {
		p.countError()
		return
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		p.countError()
		return
	}
	p.hCapture.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	p.store(typ, trigger, pinned, buf.Bytes())
}

// store parses, rings, metrics, and diffs one finished capture.
func (p *Profiler) store(typ, trigger string, pinned bool, blob []byte) {
	summary, err := ParseSummary(blob, topN)
	if err != nil {
		summary = nil
		p.countError()
	}

	p.mu.Lock()
	p.seq++
	info := CaptureInfo{
		ID:         fmt.Sprintf("%s-%06d", typ, p.seq),
		Type:       typ,
		Trigger:    trigger,
		TimeUnixMS: time.Now().UnixMilli(),
		SizeBytes:  len(blob),
		Pinned:     pinned,
		Summary:    summary,
	}
	dropped := p.ring.Add(capture{info: info, blob: blob}, int64(len(blob)), pinned)
	p.counts[typ+"|"+trigger]++
	var regs []Regression
	if summary != nil && (typ == TypeCPU || typ == TypeHeap) {
		regs = diffSummaries(typ, p.prev[typ], summary, regressionPts)
		for i := range regs {
			regs[i].CaptureID = info.ID
		}
		p.prev[typ] = summary
		p.regress += int64(len(regs))
	}
	ringBytes, ringCount := p.ring.Bytes(), p.ring.Len()
	p.mu.Unlock()

	p.mDropped.Add(int64(dropped))
	p.gBytes.Set(float64(ringBytes))
	p.gCount.Set(float64(ringCount))
	for _, reg := range regs {
		p.mRegress.Inc()
		p.cfg.Bus.Publish(obs.Event{
			Type:  EventRegression,
			Value: reg.CurPct,
			Msg:   reg.String(),
		})
	}
}

func (p *Profiler) countError() {
	p.mu.Lock()
	p.errors++
	p.mu.Unlock()
	p.mErrors.Inc()
}

// List returns capture metadata newest-first, filtered by type and
// trigger (empty matches all), capped at limit (<=0: all).
func (p *Profiler) List(typ, trigger string, limit int) []CaptureInfo {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Size for the limit, not the ring; never nil, so no match renders [].
	n := p.ring.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]CaptureInfo, 0, n)
	for i := p.ring.Len() - 1; i >= 0; i-- {
		info := p.ring.At(i).info
		if (typ != "" && info.Type != typ) || (trigger != "" && info.Trigger != trigger) {
			continue
		}
		out = append(out, info)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Get returns one capture's metadata and raw gzipped pprof blob.
func (p *Profiler) Get(id string) (CaptureInfo, []byte, bool) {
	if p == nil {
		return CaptureInfo{}, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.ring.Newest(func(c *capture) bool { return c.info.ID == id })
	return c.info, c.blob, ok
}

// Latest returns the newest capture of the given type — the flightrec
// incident embed uses this to attach the profile nearest the trigger.
func (p *Profiler) Latest(typ string) (CaptureInfo, bool) {
	if p == nil {
		return CaptureInfo{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.ring.Newest(func(c *capture) bool { return c.info.Type == typ })
	return c.info, ok
}

// CaptureCount is one (type, trigger) cell of the captures-by-cause
// table, rendered on /metrics as profile_captures_total{type,trigger}.
type CaptureCount struct {
	Type    string `json:"type"`
	Trigger string `json:"trigger"`
	Count   int64  `json:"count"`
}

// Stats is the profiler's self-accounting, served under /api/v1/profiles.
type Stats struct {
	IntervalMS   int64          `json:"interval_ms"`
	DutyMS       int64          `json:"duty_ms"`
	BudgetBytes  int64          `json:"budget_bytes"`
	RingBytes    int64          `json:"ring_bytes"`
	RingCaptures int            `json:"ring_captures"`
	Captures     int64          `json:"captures"`
	Dropped      int64          `json:"dropped"`
	Regressions  int64          `json:"regressions"`
	Errors       int64          `json:"errors"`
	ByCause      []CaptureCount `json:"by_cause,omitempty"`
}

// Stats returns a frozen view of the profiler's accounting. ByCause is
// sorted by (type, trigger) so renderings are byte-stable.
func (p *Profiler) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		IntervalMS:   p.cfg.Interval.Milliseconds(),
		DutyMS:       p.cfg.Duty.Milliseconds(),
		BudgetBytes:  p.cfg.Budget,
		RingBytes:    p.ring.Bytes(),
		RingCaptures: p.ring.Len(),
		Captures:     p.ring.Added(),
		Dropped:      p.ring.Evicted(),
		Regressions:  p.regress,
		Errors:       p.errors,
	}
	for key, n := range p.counts {
		var typ, trig string
		for i := 0; i < len(key); i++ {
			if key[i] == '|' {
				typ, trig = key[:i], key[i+1:]
				break
			}
		}
		s.ByCause = append(s.ByCause, CaptureCount{Type: typ, Trigger: trig, Count: n})
	}
	sort.Slice(s.ByCause, func(i, j int) bool {
		if s.ByCause[i].Type != s.ByCause[j].Type {
			return s.ByCause[i].Type < s.ByCause[j].Type
		}
		return s.ByCause[i].Trigger < s.ByCause[j].Trigger
	})
	return s
}
