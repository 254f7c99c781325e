// Package obs is the reproduction's observability substrate: a leveled
// key-value structured logger (text and JSON encoders), a metrics
// registry (counters, gauges, fixed-bucket histograms) with deterministic
// JSON snapshots and Prometheus text exposition (WritePrometheus),
// lightweight spans stored as flat records that nest into a per-run
// timing tree and export as Chrome trace-event JSON (WriteChromeTrace), a
// bounded drop-oldest detection-event bus (Bus) for live streaming, the
// bounded drop-oldest store of recent items (Ring) under run spans,
// request traces, profile captures and event histories, build identity
// (BuildInfo), and run manifests that make every generated artifact
// auditable.
//
// The package is dependency-free (stdlib only) and nop-by-default: the
// default logger is disabled until a front end installs one, and a
// disabled logger costs zero allocations per call, so instrumented hot
// paths (the per-window simulation loop, per-fold training) pay nothing
// when observability is off.
//
// Pipeline packages register their instruments once at init time:
//
//	var windows = obs.GetCounter("trace.windows_simulated")
//
// and the CLI snapshots everything at the end of a run:
//
//	obs.WriteRunSnapshot(f) // counters + gauges + histograms + span tree
package obs

import "sync/atomic"

// DefaultRegistry is the process-wide metrics registry used by
// GetCounter, GetGauge and GetHistogram. Pipeline packages register their
// instruments here; the CLI snapshots and resets it per run.
var DefaultRegistry = NewRegistry()

// DefaultTracer is the process-wide span tracer used by StartSpan.
var DefaultTracer = NewTracer()

var defaultLogger atomic.Pointer[Logger]

// SetLogger installs the process-wide logger returned by Log. Passing
// Nop() (or a nil logger) disables logging again.
func SetLogger(l *Logger) { defaultLogger.Store(l) }

// Log returns the process-wide logger. The zero state is a nop logger:
// every method is safe to call and does nothing.
func Log() *Logger { return defaultLogger.Load() }

// GetCounter returns (creating if needed) the named counter on the
// default registry.
func GetCounter(name string) *Counter { return DefaultRegistry.Counter(name) }

// GetGauge returns (creating if needed) the named gauge on the default
// registry.
func GetGauge(name string) *Gauge { return DefaultRegistry.Gauge(name) }

// GetHistogram returns (creating if needed) the named histogram on the
// default registry. Buckets apply only on first creation.
func GetHistogram(name string, buckets []float64) *Histogram {
	return DefaultRegistry.Histogram(name, buckets)
}

// StartSpan opens a span on the default tracer. The returned span must be
// closed with End; spans opened while another is active become its
// children, building the per-run timing tree.
func StartSpan(name string) *Span { return DefaultTracer.Start(name) }

// TimeBuckets are histogram bounds (seconds) suited to stage and training
// wall times: 100 µs to 30 s.
var TimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// WindowBuckets are histogram bounds counted in 10 ms sampling windows,
// suited to online detection latency.
var WindowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
