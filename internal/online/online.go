// Package online turns the per-window classifiers into run-time malware
// detectors: predictions over consecutive 10 ms HPC samples are smoothed
// by a sliding-window majority vote before raising an alarm. This is the
// "online detection" setting of Demme et al. (ISCA'13) and Ozsoy et al.
// (HPCA'15) that the thesis's related work and future work discuss: a
// single noisy window should not trigger, but sustained malicious
// behaviour should — quickly.
package online

import (
	"errors"
	"fmt"

	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// AlarmLatencyMetric is the registry name of the detection-latency
// histogram: the 1-based window index at which the alarm first fired,
// recorded per detected trace. Consumers read it via
// obs.DefaultRegistry.Snapshot().Histograms[AlarmLatencyMetric].
const AlarmLatencyMetric = "online.alarm_latency_windows"

// Event types published to obs.DefaultBus while monitoring, streamed
// live by the telemetry server's /events endpoint.
const (
	// EventAlarm fires once per detected trace; Value is the alarm
	// latency in seconds, Window the first alarmed window.
	EventAlarm = "alarm"
	// EventWindow fires per classified sampling window (only while the
	// bus has subscribers); Value is the raw per-window verdict.
	EventWindow = "window"
)

// Detection instruments: traces monitored, alarms raised, and the
// window-granularity latency distribution of those alarms.
var (
	mMonitors     = obs.GetCounter("online.monitors")
	mAlarms       = obs.GetCounter("online.alarms")
	mAlarmLatency = obs.GetHistogram(AlarmLatencyMetric, obs.WindowBuckets)
)

// Smoother accumulates binary per-window verdicts (1 = malware) and
// decides when to raise the alarm.
type Smoother interface {
	Name() string
	// Observe consumes one window verdict and reports whether the alarm
	// is raised as of this window.
	Observe(pred int) bool
	// Reset clears state for a new monitored process.
	Reset()
}

// MajorityVoter alarms when at least Threshold of the last Window
// verdicts are malware.
type MajorityVoter struct {
	// Window is the sliding-window length in samples (default 8).
	Window int
	// Threshold is the malware fraction that triggers (default 0.5).
	Threshold float64

	hist []int
	pos  int
	n    int
	sum  int
}

// Name implements Smoother.
func (m *MajorityVoter) Name() string { return "MajorityVoter" }

func (m *MajorityVoter) init() {
	if m.Window <= 0 {
		m.Window = 8
	}
	if m.Threshold <= 0 || m.Threshold > 1 {
		m.Threshold = 0.5
	}
	if m.hist == nil {
		m.hist = make([]int, m.Window)
	}
}

// Observe implements Smoother.
func (m *MajorityVoter) Observe(pred int) bool {
	m.init()
	if pred != 0 {
		pred = 1
	}
	if m.n == m.Window {
		m.sum -= m.hist[m.pos]
	} else {
		m.n++
	}
	m.hist[m.pos] = pred
	m.sum += pred
	m.pos = (m.pos + 1) % m.Window
	// The vote is over the filled portion, so detection can fire before
	// the window is full under a strong signal.
	return float64(m.sum) >= m.Threshold*float64(m.Window)
}

// Reset implements Smoother.
func (m *MajorityVoter) Reset() {
	m.init()
	for i := range m.hist {
		m.hist[i] = 0
	}
	m.pos, m.n, m.sum = 0, 0, 0
}

// Result is the outcome of monitoring one trace.
type Result struct {
	// Detected reports whether the alarm fired at any window.
	Detected bool
	// Window is the 0-based index of the first alarmed window
	// (-1 if never).
	Window int
	// LatencySeconds is Window+1 sampling periods (0 if never detected).
	LatencySeconds float64
}

// options collects the Monitor/MonitorAll configuration. Smoothers are
// stateful, so the option carries a factory: every monitored trace gets
// its own instance, which is what makes MonitorAll safe to fan out.
type options struct {
	smoother     func() Smoother
	samplePeriod float64
	parallelism  int
}

// Option configures Monitor and MonitorAll.
type Option func(*options)

// WithSmoother installs the decision smoother, given as a factory so each
// monitored trace gets a fresh instance. Default: a MajorityVoter with
// its standard window.
func WithSmoother(factory func() Smoother) Option {
	return func(o *options) { o.smoother = factory }
}

// WithSamplePeriod sets the HPC sampling period in seconds used to
// convert the alarm window index into latency (default 0.01, the paper's
// 10 ms).
func WithSamplePeriod(seconds float64) Option {
	return func(o *options) { o.samplePeriod = seconds }
}

// WithParallelism bounds MonitorAll's worker count. 0 uses the
// process-wide default; 1 forces the serial path. Monitor ignores it.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

func buildOptions(opts []Option) (options, error) {
	o := options{
		smoother:     func() Smoother { return &MajorityVoter{} },
		samplePeriod: 0.01,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.smoother == nil {
		return o, fmt.Errorf("online: nil smoother factory")
	}
	if o.samplePeriod <= 0 {
		return o, fmt.Errorf("online: non-positive sample period")
	}
	return o, nil
}

// compileOnce lowers the classifier into its batch-inference program
// when it has a compiled kernel. A nil program means "interpret"; an
// untrained model is reported up front instead of panicking per window.
func compileOnce(clf ml.Classifier) (*infer.Program, error) {
	if clf == nil {
		return nil, fmt.Errorf("online: nil classifier")
	}
	prog, err := infer.Compile(clf)
	switch {
	case err == nil:
		return prog, nil
	case errors.Is(err, infer.ErrNotCompilable):
		return nil, nil
	default:
		return nil, fmt.Errorf("online: compiling %s: %w", clf.Name(), err)
	}
}

// Monitor replays a trace through a trained binary classifier and a
// decision smoother, returning when (if ever) the alarm fires. The
// classifier must have been trained on the same event set as the trace,
// with binary labels (1 = malware). With no options it smooths through a
// default MajorityVoter at the paper's 10 ms sampling period.
// Classifiers with a compiled kernel (see internal/infer) run each
// window through the compiled program.
func Monitor(clf ml.Classifier, tr *trace.Trace, opts ...Option) (*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	prog, err := compileOnce(clf)
	if err != nil {
		return nil, err
	}
	return monitor(clf, prog, tr, o)
}

// MonitorAll monitors every trace concurrently and returns the results in
// trace order. Each trace gets its own smoother instance, so the results
// are identical to calling Monitor on each trace serially, at any worker
// count. The classifier is compiled once and the program shared across
// workers (a Program is goroutine-safe); interpreted fallbacks share the
// classifier, whose Predict must be read-only (every classifier in this
// repository is).
func MonitorAll(clf ml.Classifier, traces []*trace.Trace, opts ...Option) ([]*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	prog, err := compileOnce(clf)
	if err != nil {
		return nil, err
	}
	return parallel.Map(
		parallel.Options{Name: "online.monitor", Workers: o.parallelism},
		len(traces), func(i int) (*Result, error) {
			return monitor(clf, prog, traces[i], o)
		})
}

func monitor(clf ml.Classifier, prog *infer.Program, tr *trace.Trace, o options) (*Result, error) {
	if clf == nil || tr == nil {
		return nil, fmt.Errorf("online: nil argument")
	}
	sm := o.smoother()
	if sm == nil {
		return nil, fmt.Errorf("online: smoother factory returned nil")
	}
	sm.Reset()
	mMonitors.Inc()
	bus := obs.DefaultBus
	res := &Result{Window: -1}
	// One feature buffer per trace, refilled in place each window,
	// instead of a fresh Values() slice per 10 ms sample.
	var vals []float64
	if len(tr.Records) > 0 {
		vals = make([]float64, 0, len(tr.Records[0].Readings))
	}
	for i := range tr.Records {
		vals = tr.Records[i].AppendValues(vals[:0])
		var pred int
		if prog != nil {
			var err error
			if pred, err = prog.PredictOne(vals); err != nil {
				return nil, fmt.Errorf("online: %s window %d: %w", tr.SampleName, i, err)
			}
		} else {
			pred = clf.Predict(vals)
		}
		// Per-window classification events only cost anything when a
		// live /events stream is attached; Publish without subscribers
		// is a single atomic load.
		bus.Publish(obs.Event{Type: EventWindow, Sample: tr.SampleName,
			Class: tr.Class.String(), Window: i, Value: float64(pred)})
		if sm.Observe(pred) && !res.Detected {
			res.Detected = true
			res.Window = i
			res.LatencySeconds = float64(i+1) * o.samplePeriod
			// Keep consuming: callers may want post-detection stats
			// later; for now first alarm decides.
			break
		}
	}
	if res.Detected {
		mAlarms.Inc()
		mAlarmLatency.Observe(float64(res.Window + 1))
		bus.Publish(obs.Event{Type: EventAlarm, Sample: tr.SampleName,
			Class: tr.Class.String(), Window: res.Window,
			Value: res.LatencySeconds})
		obs.Log().Debug("alarm raised", "sample", tr.SampleName,
			"class", tr.Class.String(), "window", res.Window,
			"latency_s", res.LatencySeconds)
	}
	return res, nil
}
