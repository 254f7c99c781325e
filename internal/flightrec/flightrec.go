// Package flightrec is the black-box flight recorder of the observability
// stack: a bounded in-memory ring of the most recent bus events, plus a
// metrics snapshot, dumped as one self-contained incident JSON file the
// moment something goes wrong — an alarm, a firing alert rule, or a
// panic.
//
// The point is post-hoc forensics without infinite logging: when a
// hardware malware detector raises an alarm (or quietly decays until an
// alert fires), the operator gets the event sequence and metric history
// leading up to the trigger, stamped with the build and run manifest that
// produced them, in a single file that reproduces the moment. Recording
// costs one mutex-guarded obs.Ring add per event, so it stays on in
// production.
package flightrec

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Registry metric names exported by the Recorder.
const (
	IncidentsMetric = "flightrec.incidents"
	// SuppressedMetric counts TryDump calls skipped by cooldown or the
	// incident cap — visible so "why is there no dump?" is answerable.
	SuppressedMetric = "flightrec.suppressed"
)

// Incident is the dump payload: everything the recorder held when the
// trigger hit.
type Incident struct {
	// Reason names the trigger ("alarm", "alert-fpr-high", "panic", ...).
	Reason     string         `json:"reason"`
	Seq        int            `json:"seq"`
	TimeUnixMS int64          `json:"t_ms"`
	Build      *obs.BuildInfo `json:"build,omitempty"`
	// Manifest is the serving run's manifest (model provenance, baseline,
	// config), embedded so the dump is self-contained.
	Manifest *obs.Manifest `json:"manifest,omitempty"`
	Events   []obs.Event   `json:"events"`
	// Metrics is the full registry snapshot at dump time.
	Metrics obs.Snapshot `json:"metrics"`
	// History is the recent metric history leading up to the trigger
	// (a tsdb.HistoryDump when serve wires Config.History), so a dump
	// shows the minutes before the incident, not just its instant.
	History any `json:"history,omitempty"`
	// Trace is the request trace coinciding with the trigger (an
	// obs.ReqTraceSnapshot when serve wires Config.Trace), tying the
	// incident to the exact request's stage-by-stage timings.
	Trace any `json:"trace,omitempty"`
	// Profile is the CPU profile nearest the trigger (a
	// profile.CaptureInfo with its top-N summary when serve wires
	// Config.Profile), so a dump names the functions that were hot
	// when the incident began.
	Profile any `json:"profile,omitempty"`
	// Stack is set on panic dumps.
	Stack string `json:"stack,omitempty"`
}

// Ring depths and dump limits.
const (
	// eventDepth bounds the event ring.
	eventDepth = 128
	// dumpCooldown suppresses automatic dumps closer together than
	// this, so an alarm storm produces one incident, not hundreds.
	dumpCooldown = 10 * time.Second
	// maxIncidents stops automatic dumps once the process has written
	// this many incident files.
	maxIncidents = 32
)

// Config configures a Recorder.
type Config struct {
	// Dir is where incident files land (required for dumps; an empty Dir
	// records but refuses to dump).
	Dir string
	// Registry is snapshotted into dumps and receives the recorder's own
	// metrics (default obs.DefaultRegistry).
	Registry *obs.Registry
	// Manifest, when set, is embedded in every incident.
	Manifest *obs.Manifest
	// History, when set, is called (off-lock, like the metrics snapshot)
	// at dump time and embedded as the incident's pre-trigger history —
	// serve wires it to the tsdb store's RecentHistory.
	History func() any
	// Trace, when set, is called at dump time and embedded as the
	// triggering request trace — serve wires it to the request tracer's
	// most recent tail-kept trace (nil results are omitted).
	Trace func() any
	// Profile, when set, is called at dump time and embedded as the
	// triggering profile — serve wires it to the continuous profiler's
	// latest CPU capture summary (nil results are omitted).
	Profile func() any
}

// Recorder is the bounded black-box recorder. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Recorder records and
// dumps nothing), so callers can wire it unconditionally.
type Recorder struct {
	mu         sync.Mutex
	cfg        Config
	events     *obs.Ring[obs.Event]
	seq        int
	lastDump   time.Time
	panicStack string
	mIncident  *obs.Counter
	mSuppress  *obs.Counter
}

// New builds a recorder. Dir may be empty for record-only use (tests,
// dry runs); Dump then returns an error.
func New(cfg Config) *Recorder {
	if cfg.Registry == nil {
		cfg.Registry = obs.DefaultRegistry
	}
	r := &Recorder{
		cfg:    cfg,
		events: obs.NewRing[obs.Event](eventDepth, 0),
	}
	r.mIncident = cfg.Registry.Counter(IncidentsMetric)
	r.mSuppress = cfg.Registry.Counter(SuppressedMetric)
	return r
}

// RecordEvent adds one bus event to the ring.
func (r *Recorder) RecordEvent(e obs.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events.Add(e, 0, false)
	r.mu.Unlock()
}

// Snapshot freezes the recorder's current ring (oldest-first) without
// writing anything — the /debug/flightrecorder payload.
func (r *Recorder) Snapshot() Incident {
	if r == nil {
		return Incident{Reason: "snapshot"}
	}
	inc, _ := r.incident("snapshot", false, false)
	return inc
}

// incident freezes the ring, then fills in the metrics and the hooks'
// payloads off-lock. A dump claims the next incident number and restarts
// the cooldown; a gated dump first refuses (false) inside the cooldown or
// past the cap. The check and the claim share one critical section, so
// two triggers inside one cooldown cannot both write.
func (r *Recorder) incident(reason string, dump, gated bool) (Incident, bool) {
	r.mu.Lock()
	if gated && (r.seq >= maxIncidents ||
		(!r.lastDump.IsZero() && time.Since(r.lastDump) < dumpCooldown)) {
		r.mu.Unlock()
		return Incident{}, false
	}
	if dump {
		r.seq++
		r.lastDump = time.Now()
	}
	inc := Incident{
		Reason:     reason,
		Seq:        r.seq,
		TimeUnixMS: time.Now().UnixMilli(),
		Manifest:   r.cfg.Manifest,
		Events:     r.events.Items(),
	}
	if dump {
		inc.Stack = r.panicStack
	}
	r.mu.Unlock()
	build := obs.Build()
	inc.Build = &build
	inc.Metrics = r.cfg.Registry.Snapshot()
	if r.cfg.History != nil {
		inc.History = r.cfg.History()
	}
	if r.cfg.Trace != nil {
		inc.Trace = r.cfg.Trace()
	}
	if r.cfg.Profile != nil {
		inc.Profile = r.cfg.Profile()
	}
	return inc, true
}

// Dump writes an incident file unconditionally (no cooldown, no cap) and
// returns its path.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("flightrec: nil recorder")
	}
	if r.cfg.Dir == "" {
		return "", fmt.Errorf("flightrec: no incident directory configured")
	}
	inc, _ := r.incident(reason, true, false)
	return r.write(inc)
}

// write stores inc as the next incident file and returns its path.
func (r *Recorder) write(inc Incident) (string, error) {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("incident-%04d-%s.json", inc.Seq, sanitize(inc.Reason)))
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flightrec: encoding incident: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}
	r.mIncident.Inc()
	obs.Log().Warn("flight recorder incident dumped", "reason", inc.Reason, "path", path)
	return path, nil
}

// TryDump is Dump behind the cooldown and lifetime cap — the form every
// automatic trigger uses. It returns the written path, or "" when the
// dump was suppressed or failed (errors are logged, not returned, because
// triggers run on hot paths that must not branch on forensics failures).
func (r *Recorder) TryDump(reason string) string {
	if r == nil || r.cfg.Dir == "" {
		return ""
	}
	inc, ok := r.incident(reason, true, true)
	if !ok {
		r.mSuppress.Inc()
		return ""
	}
	path, err := r.write(inc)
	if err != nil {
		obs.Log().Error("flight recorder dump failed", "reason", reason, "err", err.Error())
		return ""
	}
	return path
}

// sanitize maps a trigger reason onto a filesystem-safe file-name chunk.
func sanitize(s string) string {
	if s == "" {
		return "incident"
	}
	mapped := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		case c >= 'A' && c <= 'Z':
			return c + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
	if len(mapped) > 48 {
		mapped = mapped[:48]
	}
	return mapped
}

// Watch subscribes to the bus until ctx is done, recording every event
// into the ring and dumping (via TryDump) when an event's type is in
// triggers. Call it on its own goroutine.
func (r *Recorder) Watch(ctx context.Context, bus *obs.Bus, triggers ...string) {
	if r == nil || bus == nil {
		return
	}
	trig := map[string]bool{}
	for _, t := range triggers {
		trig[t] = true
	}
	sub := bus.Subscribe(64)
	defer sub.Close()
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-sub.Events():
			if !ok {
				return
			}
			r.RecordEvent(e)
			if trig[e.Type] {
				r.TryDump(e.Type)
			}
		}
	}
}

// DumpOnPanic dumps an incident (with the goroutine stack) when the
// calling goroutine is panicking, then re-panics so the crash still
// surfaces. Use as `defer rec.DumpOnPanic()` at the top of serve loops.
// Panic dumps bypass the cooldown — a crash is always worth a file.
func (r *Recorder) DumpOnPanic() {
	if p := recover(); p != nil {
		if r != nil && r.cfg.Dir != "" {
			r.mu.Lock()
			r.panicStack = fmt.Sprintf("panic: %v\n\n%s", p, debug.Stack())
			r.mu.Unlock()
			if _, err := r.Dump("panic"); err != nil {
				obs.Log().Error("flight recorder panic dump failed", "err", err.Error())
			}
		}
		panic(p)
	}
}
