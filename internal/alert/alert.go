// Package alert is a declarative threshold-alerting engine over the obs
// metric registry. Operators describe conditions in a small JSON rule
// file — metric, comparison, threshold, hold duration, severity — and the
// engine evaluates them on a ticker, publishing firing and resolved
// transitions to the event bus and serving its state on the telemetry
// server's /alerts endpoint.
//
// The rule language is deliberately tiny: one metric per rule, six
// comparison operators, and a "for" hold so a condition must stay true
// for a duration before it pages (the standard debounce against
// single-window blips). Rules read any metric the registry exports —
// process health (event-bus drops), throughput (windows/sec), and the
// model-quality gauges from internal/quality (F1, PSI), which is the
// point: a hardware malware detector whose F1 sags or whose inputs drift
// should page a human before it silently waves malware through.
package alert

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Registry metric names exported by the Engine.
const (
	FiringMetric      = "alert.firing"
	EvaluationsMetric = "alert.evaluations"
)

// Event types published to the bus on rule transitions.
const (
	EventFiring   = "alert"
	EventResolved = "alert_resolved"
)

// Rule states, in lifecycle order.
const (
	StateInactive = "inactive" // condition false
	StatePending  = "pending"  // condition true, hold duration not yet met
	StateFiring   = "firing"   // condition held for the full "for" duration
	StateNoData   = "no_data"  // metric not present in the registry
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("90s", "5m") or a bare number of seconds, so rule files stay
// hand-writable.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		dur, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("alert: bad duration %q: %w", s, err)
		}
		*d = Duration(dur)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(raw, &secs); err != nil {
		return fmt.Errorf("alert: duration must be a string or seconds: %s", raw)
	}
	// Beyond ±2^63 nanoseconds Go's conversion to int64 is
	// implementation-defined (1e10 s turns negative on amd64).
	ns := secs * float64(time.Second)
	if !(ns >= -0x1p63 && ns < 0x1p63) {
		return fmt.Errorf("alert: duration %s seconds out of range", raw)
	}
	*d = Duration(time.Duration(ns))
	return nil
}

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Rule is one declarative alert condition.
type Rule struct {
	// Name identifies the rule in events, logs and /alerts.
	Name string `json:"name"`
	// Metric is the registry metric to watch. Counters and gauges are
	// addressed by name; histograms take a ":" suffix selecting an
	// aggregate — count, sum, mean, min, max, p50, p90, p95 or p99
	// (e.g. "telemetry.scrape_ms:p99").
	Metric string `json:"metric"`
	// Op is the comparison: one of > >= < <= == !=.
	Op string `json:"op"`
	// Threshold is the right-hand side of the comparison.
	Threshold float64 `json:"threshold"`
	// For is how long the condition must hold before the rule fires
	// (0 fires on the first true evaluation).
	For Duration `json:"for,omitempty"`
	// Severity is free-form operator taxonomy ("warning", "critical", ...);
	// defaults to "warning".
	Severity string `json:"severity,omitempty"`
	// Msg is an optional operator hint included in events and /alerts.
	Msg string `json:"msg,omitempty"`
}

var validOps = map[string]func(v, t float64) bool{
	">":  func(v, t float64) bool { return v > t },
	">=": func(v, t float64) bool { return v >= t },
	"<":  func(v, t float64) bool { return v < t },
	"<=": func(v, t float64) bool { return v <= t },
	"==": func(v, t float64) bool { return v == t },
	"!=": func(v, t float64) bool { return v != t },
}

func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule missing name")
	}
	if r.Metric == "" {
		return fmt.Errorf("alert: rule %q missing metric", r.Name)
	}
	if _, ok := validOps[r.Op]; !ok {
		return fmt.Errorf("alert: rule %q has bad op %q (want one of > >= < <= == !=)", r.Name, r.Op)
	}
	if time.Duration(r.For) < 0 {
		return fmt.Errorf("alert: rule %q has negative for", r.Name)
	}
	if r.Severity == "" {
		r.Severity = "warning"
	}
	return nil
}

// ParseRules decodes a rule file: either a bare JSON array of rules or an
// object with a "rules" key, so files can grow metadata later. An object
// without that key, or a file that is JSON null, is an error, not an
// empty rule set: a bare rule, a misspelled key or a null would otherwise
// configure no alerts and say nothing. An empty array is an empty set.
func ParseRules(raw []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(raw, &rules); err != nil {
		var wrapper struct {
			Rules *[]Rule `json:"rules"`
		}
		if err2 := json.Unmarshal(raw, &wrapper); err2 != nil {
			return nil, fmt.Errorf("alert: parsing rules: %w", err)
		}
		if wrapper.Rules == nil {
			return nil, fmt.Errorf(`alert: parsing rules: object has no "rules" array`)
		}
		rules = *wrapper.Rules
	} else if rules == nil {
		return nil, fmt.Errorf("alert: parsing rules: file is null, not a rule array")
	}
	seen := map[string]bool{}
	for i := range rules {
		if err := rules[i].validate(); err != nil {
			return nil, err
		}
		if seen[rules[i].Name] {
			return nil, fmt.Errorf("alert: duplicate rule name %q", rules[i].Name)
		}
		seen[rules[i].Name] = true
	}
	return rules, nil
}

// RuleStatus is one rule's live evaluation state, served on /alerts.
type RuleStatus struct {
	Rule  Rule   `json:"rule"`
	State string `json:"state"`
	// Value is the metric's value at the last evaluation (0 under no_data).
	Value float64 `json:"value"`
	// ActiveSinceMS / FiredAtMS are unix milliseconds; 0 when not set.
	ActiveSinceMS int64 `json:"active_since_ms,omitempty"`
	FiredAtMS     int64 `json:"fired_at_ms,omitempty"`
	// Fires counts how many times this rule has transitioned to firing.
	Fires int64 `json:"fires"`
}

// Option configures an Engine.
type Option func(*Engine)

// WithRegistry points the engine at a registry other than the default.
func WithRegistry(r *obs.Registry) Option { return func(e *Engine) { e.reg = r } }

// WithBus routes transition events to a bus other than the default.
func WithBus(b *obs.Bus) Option { return func(e *Engine) { e.bus = b } }

// WithOnFire installs a hook called (synchronously, off the engine lock)
// for every rule transition into firing — the flight recorder's trigger.
func WithOnFire(fn func(RuleStatus)) Option { return func(e *Engine) { e.onFire = fn } }

// Engine evaluates a fixed rule set against a registry. All methods are
// safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	rules  []Rule
	status []RuleStatus
	reg    *obs.Registry
	bus    *obs.Bus
	onFire func(RuleStatus)

	mEvals  *obs.Counter
	gFiring *obs.Gauge
}

// New builds an engine over the given rules (an empty set is legal: the
// engine idles and /alerts reports no rules).
func New(rules []Rule, opts ...Option) *Engine {
	e := &Engine{
		rules: append([]Rule{}, rules...),
		reg:   obs.DefaultRegistry,
		bus:   obs.DefaultBus,
	}
	for _, opt := range opts {
		opt(e)
	}
	for i := range e.rules {
		e.rules[i].validate() // fills default severity for hand-built rules
		e.status = append(e.status, RuleStatus{Rule: e.rules[i], State: StateInactive})
	}
	e.mEvals = e.reg.Counter(EvaluationsMetric)
	e.gFiring = e.reg.Gauge(FiringMetric)
	return e
}

// EvaluateAt runs one evaluation pass with an explicit clock, the
// testable core of Run.
func (e *Engine) EvaluateAt(now time.Time) {
	snap := e.reg.Snapshot()
	nowMS := now.UnixMilli()

	e.mu.Lock()
	var transitions []obs.Event
	var fired []RuleStatus
	firing := 0
	for i := range e.status {
		st := &e.status[i]
		// Metric references resolve through the shared obs lookup:
		// histogram aggregates via "name:agg", empty histograms as 0
		// (see obs.Snapshot.Lookup for the documented contract).
		v, ok := snap.Lookup(st.Rule.Metric)
		wasFiring := st.State == StateFiring
		switch {
		case !ok:
			st.State = StateNoData
			st.Value = 0
			st.ActiveSinceMS = 0
		case validOps[st.Rule.Op](v, st.Rule.Threshold):
			st.Value = v
			if st.ActiveSinceMS == 0 {
				st.ActiveSinceMS = nowMS
			}
			held := time.Duration(nowMS-st.ActiveSinceMS) * time.Millisecond
			if wasFiring || held >= time.Duration(st.Rule.For) {
				st.State = StateFiring
				if !wasFiring {
					st.FiredAtMS = nowMS
					st.Fires++
					fired = append(fired, *st)
					transitions = append(transitions, obs.Event{
						Type:  EventFiring,
						Msg:   fireMsg(*st),
						Value: v,
					})
				}
			} else {
				st.State = StatePending
			}
		default:
			st.Value = v
			st.ActiveSinceMS = 0
			st.State = StateInactive
			if wasFiring {
				transitions = append(transitions, obs.Event{
					Type:  EventResolved,
					Msg:   fmt.Sprintf("%s resolved: %s = %g", st.Rule.Name, st.Rule.Metric, v),
					Value: v,
				})
			}
		}
		if st.State == StateFiring {
			firing++
		}
	}
	e.mu.Unlock()

	e.mEvals.Inc()
	e.gFiring.Set(float64(firing))
	for _, ev := range transitions {
		e.bus.Publish(ev)
		if ev.Type == EventFiring {
			obs.Log().Warn("alert firing", "detail", ev.Msg)
		} else {
			obs.Log().Info("alert resolved", "detail", ev.Msg)
		}
	}
	if e.onFire != nil {
		for _, st := range fired {
			e.onFire(st)
		}
	}
}

func fireMsg(st RuleStatus) string {
	msg := fmt.Sprintf("%s [%s] firing: %s = %g (%s %g)",
		st.Rule.Name, st.Rule.Severity, st.Rule.Metric, st.Value, st.Rule.Op, st.Rule.Threshold)
	if st.Rule.Msg != "" {
		msg += " — " + st.Rule.Msg
	}
	return msg
}

// Run evaluates on a ticker until ctx is done. interval <= 0 defaults to
// 15 seconds.
func (e *Engine) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			e.EvaluateAt(now)
		}
	}
}

// AlertsSnapshot is the /alerts payload.
type AlertsSnapshot struct {
	Rules  []RuleStatus `json:"rules"`
	Firing int          `json:"firing"`
}

// Snapshot freezes every rule's status, sorted firing-first then by name.
func (e *Engine) Snapshot() AlertsSnapshot {
	e.mu.Lock()
	snap := AlertsSnapshot{Rules: append([]RuleStatus{}, e.status...)}
	e.mu.Unlock()
	for _, st := range snap.Rules {
		if st.State == StateFiring {
			snap.Firing++
		}
	}
	rank := map[string]int{StateFiring: 0, StatePending: 1, StateNoData: 2, StateInactive: 3}
	sort.SliceStable(snap.Rules, func(i, j int) bool {
		ri, rj := rank[snap.Rules[i].State], rank[snap.Rules[j].State]
		if ri != rj {
			return ri < rj
		}
		return snap.Rules[i].Rule.Name < snap.Rules[j].Rule.Name
	})
	return snap
}
