// Package obsflag is the shared command-line surface of the
// observability layer: every front end (the hpcmal subcommands and the
// runnable examples) registers the same flag set and gets logging,
// metrics snapshots, a live telemetry server (-listen), CPU/heap
// profiling (-cpuprofile/-memprofile), and Perfetto span export
// (-trace-out) with identical semantics.
package obsflag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Flags holds the parsed shared options. Add registers them; Setup
// applies them; Finish flushes run artifacts and stops what Setup
// started.
type Flags struct {
	Verbose    bool
	VVerbose   bool
	Quiet      bool
	LogJSON    bool
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string
	Listen     string
	Workers    int

	// Continuous-profiler knobs. The profiler runs with any -listen
	// server (it is the service's always-on self-observation);
	// ProfileInterval 0 disables it.
	ProfileInterval time.Duration
	ProfileDuty     time.Duration
	ProfileBudget   int64

	// ReadyFn, when set before Setup, gates the telemetry server's
	// /readyz endpoint from its very first request (Setup starts the
	// listener, so attaching later would leave a default-ready window).
	// Nil keeps /readyz mirroring liveness — right for one-shot runs.
	ReadyFn func() (bool, string)

	server      *telemetry.Server
	cpuFile     *os.File
	profiler    *profile.Profiler
	stopProfile func()
	runtimeCol  *obs.RuntimeCollector
}

// Add registers the shared observability flags on fs.
func Add(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Verbose, "v", false, "verbose logging (debug level)")
	fs.BoolVar(&f.VVerbose, "vv", false, "very verbose logging (trace level)")
	fs.BoolVar(&f.Quiet, "quiet", false, "log errors only")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit log lines as JSON")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the run's metrics snapshot JSON to `file`")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the run's span tree as Chrome trace-event JSON to `file` (open in Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to `file` at exit")
	fs.StringVar(&f.Listen, "listen", "", "serve live telemetry (/metrics, /events, /debug/pprof) on `addr` for the run's duration")
	fs.IntVar(&f.Workers, "parallel", 0, "max `workers` for parallel stages (1 = serial; 0 = all CPUs); output is identical at any value")
	fs.DurationVar(&f.ProfileInterval, "profile-interval", 60*time.Second, "continuous profiler: spacing between capture cycles under -listen (0 disables)")
	fs.DurationVar(&f.ProfileDuty, "profile-duty", 10*time.Second, "continuous profiler: CPU-profile duty window per cycle")
	fs.Int64Var(&f.ProfileBudget, "profile-budget", 8<<20, "continuous profiler: capture-ring byte budget")
	return f
}

// Level returns the log level the verbosity flags select.
func (f *Flags) Level() obs.Level {
	switch {
	case f.Quiet:
		return obs.LevelError
	case f.VVerbose:
		return obs.LevelTrace
	case f.Verbose:
		return obs.LevelDebug
	}
	return obs.LevelInfo
}

// Setup installs the process logger, clears run-scoped metric and span
// state (so sequential in-process invocations snapshot identically),
// bounds the parallel engine, starts CPU profiling, and brings up the
// -listen telemetry server.
func (f *Flags) Setup() error {
	obs.SetLogger(obs.New(os.Stderr, f.Level(), f.LogJSON))
	obs.DefaultRegistry.Reset()
	obs.DefaultTracer.Reset()
	parallel.SetDefaultWorkers(f.Workers)
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return err
		}
		// Claim the process-wide CPU-profile slot for the run's
		// duration so the continuous profiler and /debug/pprof/profile
		// skip/409 instead of racing runtime/pprof's error path.
		profile.TryAcquireCPU()
		if err := pprof.StartCPUProfile(cf); err != nil {
			profile.ReleaseCPU()
			cf.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		f.cpuFile = cf
	}
	if f.Listen != "" {
		opts := []telemetry.Option{telemetry.WithReady(f.ReadyFn)}
		if f.ProfileInterval > 0 {
			f.runtimeCol = obs.NewRuntimeCollector(obs.DefaultRegistry)
			f.profiler = profile.New(profile.Config{
				Interval: f.ProfileInterval,
				Duty:     f.ProfileDuty,
				Budget:   f.ProfileBudget,
				Runtime:  f.runtimeCol,
			})
			opts = append(opts, telemetry.WithProfiler(f.profiler))
		}
		f.server = telemetry.New(opts...)
		if err := f.server.Start(f.Listen); err != nil {
			f.stopCPUProfile()
			f.profiler, f.runtimeCol = nil, nil
			return err
		}
		f.stopProfile = f.profiler.Start()
	}
	return nil
}

// Profiler returns the continuous profiler started by Setup (nil when
// disabled or without -listen) — serve wires it into the flight
// recorder's incident embed.
func (f *Flags) Profiler() *profile.Profiler { return f.profiler }

// RuntimeCollector returns the runtime/metrics collector backing the
// profiler's runtime gauges (nil when the profiler is disabled) —
// serve re-uses it as the tsdb's PreScrape hook so runtime series are
// refreshed at scrape cadence, not just once per profile cycle.
func (f *Flags) RuntimeCollector() *obs.RuntimeCollector { return f.runtimeCol }

// Server returns the telemetry server started by -listen (nil without
// the flag).
func (f *Flags) Server() *telemetry.Server { return f.server }

// SetManifest exposes the run's in-flight manifest on the telemetry
// server's /api/v1/manifest endpoint.
func (f *Flags) SetManifest(m *obs.Manifest) {
	if f.server != nil {
		f.server.SetManifest(m)
	}
}

func (f *Flags) stopCPUProfile() {
	if f.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	profile.ReleaseCPU()
	f.cpuFile.Close()
	f.cpuFile = nil
}

// Finish flushes the run's artifacts — the -metrics-out snapshot, the
// -trace-out Perfetto export, the heap profile — stops CPU profiling,
// and drains the telemetry server. Call it once, after the command's
// work succeeded.
func (f *Flags) Finish() error {
	if f.stopProfile != nil {
		f.stopProfile()
		f.stopProfile = nil
	}
	f.stopCPUProfile()
	if f.MemProfile != "" {
		mf, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		obs.Log().Info("heap profile written", "path", f.MemProfile)
	}
	if f.MetricsOut != "" {
		if err := writeTo(f.MetricsOut, obs.WriteRunSnapshot); err != nil {
			return err
		}
		obs.Log().Info("metrics snapshot written", "path", f.MetricsOut)
	}
	if f.TraceOut != "" {
		spans := obs.DefaultTracer.Records()
		err := writeTo(f.TraceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, spans)
		})
		if err != nil {
			return err
		}
		obs.Log().Info("perfetto trace written", "path", f.TraceOut, "spans", len(spans))
	}
	if f.server != nil {
		// A client that dials ahead under concurrency, as Go's transport
		// does, can leave a connection that never carries a request, and
		// http.Server.Shutdown counts it busy for 5-6 s after it opened.
		// The budget outlasts that so such a client cannot fail the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.server.Shutdown(ctx); err != nil {
			return fmt.Errorf("telemetry shutdown: %w", err)
		}
		f.server = nil
	}
	return nil
}

func writeTo(path string, fn func(io.Writer) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
