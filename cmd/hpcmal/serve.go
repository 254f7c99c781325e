package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/infer"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// serveReady, when non-nil, receives the telemetry server once `serve`
// is accepting requests. Tests hook it to learn the bound port.
var serveReady func(*telemetry.Server)

// serveStarted, when non-nil, receives the server as soon as it is
// listening but before the detector trains — the window where /readyz
// must answer 503. It runs synchronously on the serve goroutine, so a
// test hook can probe the not-ready state without racing training.
var serveStarted func(*telemetry.Server)

// printVersion implements `hpcmal -version`: the same build identity the
// run manifests and /api/v1/buildinfo report.
func printVersion() {
	bi := obs.Build()
	fmt.Printf("hpcmal %s\n", bi.String())
	if bi.Module != "" {
		fmt.Printf("module %s\n", bi.Module)
	}
}

// cmdServe runs the online detector as a long-lived daemon: it trains a
// detector once, then replays freshly collected traces through
// online.MonitorAll round after round, publishing alarms and window
// verdicts to the live /events stream and all instruments to /metrics.
// SIGINT/SIGTERM trigger a graceful shutdown: the signal context
// propagates into the parallel monitoring pool (in-flight traces finish,
// unclaimed ones are skipped) and the telemetry server drains.
func cmdServe(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, args)
}

func runServe(ctx context.Context, args []string) error {
	// The scraper, alert engine and flight-recorder watcher below run on
	// this derived context and are waited for on return, so a bounded run
	// (-rounds) leaves nothing scraping, evaluating or recording into the
	// process-wide registry and bus after it exits. The ingest shards stop
	// with the same context.
	ctx, cancel := context.WithCancel(ctx)
	var bg sync.WaitGroup
	defer bg.Wait()
	defer cancel()

	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	classifier := fs.String("classifier", "J48", "detector classifier (see `hpcmal list`)")
	precision := fs.String("precision", "float64", "inference numeric domain: float64, int16, or int8 (fixed-point quantized programs mirroring the hw datapath widths)")
	scale := fs.Float64("scale", 0.05, "training dataset scale")
	seed := fs.Uint64("seed", 1, "random seed")
	perClass := fs.Int("perclass", 2, "fresh traces to monitor per class per round")
	windows := fs.Int("windows", 32, "sampling windows per monitored trace")
	rounds := fs.Int("rounds", 0, "replay rounds before exiting (0 = run until SIGINT/SIGTERM)")
	interval := fs.Duration("interval", 0, "pause between replay rounds")
	rulesPath := fs.String("rules", "", "alert rule JSON `file` evaluated against the metric registry (see README)")
	alertInterval := fs.Duration("alert-interval", 2*time.Second, "alert-rule evaluation interval")
	incidentDir := fs.String("incident-dir", "", "write flight-recorder incident dumps to `dir` on alarms, firing alerts and panics")
	scrapeInterval := fs.Duration("scrape-interval", time.Second, "metric-history scrape period for /api/v1/query_range and the dashboard")
	replay := fs.Bool("replay", true, "run the self-generated labeled replay loop (false = pure fleet-ingest server: train, mount /api/v1/ingest, wait for traffic)")
	ingestQueue := fs.Int("ingest-queue", 16384, "per-tenant ingest queue capacity in windows (full queues answer 429 + Retry-After)")
	traceSample := fs.Float64("trace-sample", 0.05, "request-tracing head-sample probability in [0,1] (0 = record only explicitly-sampled traceparents; negative disables tracing)")
	traceSlow := fs.Duration("trace-slow", 100*time.Millisecond, "tail-keep request traces at least this slow end to end")
	traceBudget := fs.Int64("trace-budget", 4<<20, "retained request-trace ring budget in `bytes`")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prec, err := infer.ParsePrecision(*precision)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var rules []alert.Rule
	if *rulesPath != "" {
		raw, err := os.ReadFile(*rulesPath)
		if err != nil {
			return fmt.Errorf("serve: reading -rules: %w", err)
		}
		if rules, err = alert.ParseRules(raw); err != nil {
			return err
		}
	}
	// A telemetry daemon without its server would be pointless; default
	// the shared -listen flag instead of requiring it.
	if of.Listen == "" {
		of.Listen = "127.0.0.1:0"
	}
	// The readiness gate must exist before setup starts the listener so
	// /readyz never reports a default-ready window: the daemon is ready
	// once the detector is trained AND the history scraper is running.
	// The store itself is built after setup — setup resets the registry,
	// which would orphan a store built earlier — so the gate reads it
	// through an atomic pointer (Running is nil-safe).
	var trained atomic.Bool
	var storePtr atomic.Pointer[tsdb.Store]
	var ingestUp atomic.Bool
	of.ReadyFn = func() (bool, string) {
		if !trained.Load() {
			return false, "detector not trained yet"
		}
		if !storePtr.Load().Running() {
			return false, "metric-history scraper not running"
		}
		if !ingestUp.Load() {
			return false, "ingest service not mounted yet"
		}
		return true, ""
	}
	if err := of.setup(); err != nil {
		return err
	}
	srv := of.Server()

	// Request tracing: head-sample at ingest entry, tail-keep slow /
	// errored / alarm-coincident traces in a byte-budgeted ring served by
	// /api/v1/traces. A nil tracer (negative -trace-sample) threads
	// through every layer as "off" with zero per-window cost.
	var reqTracer *obs.ReqTracer
	if *traceSample >= 0 {
		reqTracer = obs.NewReqTracer(obs.ReqTracerConfig{
			HeadRatio:     *traceSample,
			SlowThreshold: *traceSlow,
			MaxBytes:      *traceBudget,
			Registry:      obs.DefaultRegistry,
		})
	}
	srv.SetReqTracer(reqTracer)

	// Embedded time-series store: scrape the registry into bounded rings
	// for the whole daemon lifetime, feeding the range-query API, the
	// dashboard, /alerts/history and incident pre-trigger history. The
	// profiler's runtime/metrics collector rides the scrape as a
	// PreScrape hook, so GC pause / goroutine / sched-latency gauges are
	// refreshed at scrape cadence and become range-queryable, alertable
	// series like everything else.
	store := tsdb.New(tsdb.Config{Interval: *scrapeInterval,
		PreScrape: of.RuntimeCollector().Update})
	storePtr.Store(store)
	bg.Add(1)
	go func() { defer bg.Done(); store.Run(ctx) }()
	srv.SetStore(store)
	fmt.Printf("telemetry on %s (/metrics /events /dashboard /healthz /readyz /api/v1/{ingest,tenants,traces,profiles,quality,drift,alerts,alerts/history,series,query_range,manifest,models,buildinfo} /debug/flightrecorder /debug/pprof)\n", srv.URL())
	if serveStarted != nil {
		serveStarted(srv)
	}

	// Train the detector once, up front.
	sp := obs.StartSpan("serve.train")
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	clf, err := core.NewClassifier(*classifier, *seed)
	if err != nil {
		return err
	}
	rows := make([][]float64, len(tbl.Instances))
	for i := range tbl.Instances {
		rows[i] = tbl.Instances[i].Features
	}
	if err := clf.Train(rows, tbl.BinaryLabels(), 2); err != nil {
		return err
	}
	sp.End()
	trained.Store(true)
	obs.Log().Info("detector trained", "classifier", *classifier,
		"rows", tbl.NumInstances())

	// Model-quality observability: sketch the training distribution into
	// the manifest, then score and drift-check the labeled replay live.
	base, err := quality.CaptureBaseline(tbl.Attributes, rows, 16)
	if err != nil {
		return err
	}
	if of.manifest.Baseline, err = base.JSON(); err != nil {
		return err
	}
	board := quality.NewScoreboard(quality.Config{})
	driftDet, err := quality.NewDriftDetector(base, quality.DriftConfig{})
	if err != nil {
		return err
	}
	// Incident dumps embed the last five minutes of metric history, so a
	// dump shows the decay leading up to the trigger, not just its moment.
	rec := flightrec.New(flightrec.Config{Dir: *incidentDir, Manifest: of.manifest,
		History: func() any { return store.RecentHistory(5 * time.Minute) },
		// Incidents embed the most recent tail-kept request trace, tying
		// the dump to the exact request whose stages led to the trigger.
		Trace: func() any {
			if snap, ok := reqTracer.LastKept(""); ok {
				return snap
			}
			return nil
		},
		// And the CPU profile nearest the trigger (the profiler pins
		// alert/alarm-triggered captures), so the dump names the
		// functions that were hot when the incident began.
		Profile: func() any {
			if info, ok := of.Profiler().Latest(profile.TypeCPU); ok {
				return info
			}
			return nil
		}})
	defer rec.DumpOnPanic()
	// Alarms trip the recorder via the bus; firing alert rules via the
	// engine's hook (each dump named after the rule that fired).
	bg.Add(2)
	go func() { defer bg.Done(); rec.Watch(ctx, obs.DefaultBus, online.EventAlarm) }()
	eng := alert.New(rules, alert.WithOnFire(func(st alert.RuleStatus) {
		rec.TryDump("alert-" + st.Rule.Name)
	}))
	go func() { defer bg.Done(); eng.Run(ctx, *alertInterval) }()
	srv.SetQuality(func() any { return board.Snapshot() })
	srv.SetDrift(func() any { return driftDet.Snapshot() })
	srv.SetAlerts(func() any { return eng.Snapshot() })
	srv.SetFlightRecorder(func() any { return rec.Snapshot() })
	obs.Log().Info("model-quality observability armed",
		"alert_rules", len(rules), "incident_dir", *incidentDir)

	// Fleet ingest: mount the sharded per-tenant detection service on the
	// versioned API. Remote endpoints POST window batches; the replay loop
	// below stays the self-generated labeled traffic source.
	svc, err := ingest.New(ingest.Config{
		Classifier:  clf,
		Events:      tbl.Attributes,
		Baseline:    base,
		QueueCap:    *ingestQueue,
		Tracer:      reqTracer,
		Precision:   prec,
		Calibration: rows,
	})
	if err != nil {
		return err
	}
	svc.Start(ctx)
	srv.SetIngest(svc.Handler())
	// The deployed-program catalog: /api/v1/models serves the ingest
	// program's spec (precision, widths, scale table, agreement) and the
	// dashboard's models panel links to it.
	srv.SetModels(func() []telemetry.ModelInfo {
		spec, ok := svc.ProgramSpec()
		if !ok {
			return nil
		}
		return []telemetry.ModelInfo{{Name: spec.Classifier, Spec: spec}}
	})
	ingestUp.Store(true)
	obs.Log().Info("fleet ingest mounted", "shards", svc.Stats().Shards,
		"queue_cap", *ingestQueue, "program", svc.Program(), "precision", prec.String())
	if serveReady != nil {
		serveReady(srv)
	}

	cfg := trace.DefaultConfig()
	cfg.WindowsPerSample = *windows
	classes := workload.AllClasses()
	round, alarms := 0, 0
	if !*replay {
		// Pure ingest server: all traffic arrives over POST /api/v1/ingest
		// (fleetgen or real endpoints). Hold until signalled.
		obs.Log().Info("replay disabled; serving fleet ingest until signal")
		<-ctx.Done()
	}
loop:
	for ; *replay && (*rounds == 0 || round < *rounds); round++ {
		rsp := obs.StartSpan("serve.round")
		for _, class := range classes {
			if ctx.Err() != nil {
				rsp.End()
				break loop
			}
			// Fresh executions every round: seeds the detector never saw.
			traces, err := trace.CollectBatch(cfg, class, *perClass, func(i int) uint64 {
				return *seed ^ (uint64(round)*1000003+uint64(class)*1009+uint64(i)+1)*0x9e3779b97f4a7c15
			}, 0)
			if err != nil {
				rsp.End()
				return err
			}
			// The replay is labeled — serve collects each trace knowing its
			// class — so every window scores the scoreboard, feeds drift
			// detection, and lands in the flight recorder's ring.
			actual := 0
			if class.IsMalware() {
				actual = 1
			}
			observer := func(o online.WindowObservation) {
				board.Observe(actual, o.Pred, o.Score)
				driftDet.Observe(o.Values)
				rec.RecordWindow(flightrec.WindowRecord{Sample: o.Sample,
					Class: o.Class, Window: o.Window, Predicted: o.Pred,
					Score: o.Score, Values: o.Values})
			}
			results, err := online.MonitorAll(clf, traces,
				online.WithSamplePeriod(cfg.SamplePeriod),
				online.WithContext(ctx),
				online.WithWindowObserver(observer),
				online.WithReqTracer(reqTracer))
			if err != nil {
				if ctx.Err() != nil {
					// Cancelled mid-round by a signal: not a failure.
					rsp.End()
					break loop
				}
				rsp.End()
				return err
			}
			for _, res := range results {
				if res != nil && res.Detected {
					alarms++
				}
			}
		}
		rsp.End()
		// Rotate the sliding windows once per replay round: the scoreboard
		// and drift detector report over the last 8 rounds.
		board.Advance()
		driftDet.Advance()
		obs.Log().Info("replay round complete", "round", round+1,
			"alarms_total", alarms)
		if *rounds == 0 || round+1 < *rounds {
			select {
			case <-ctx.Done():
				break loop
			case <-time.After(*interval):
			}
		}
	}
	if ctx.Err() != nil {
		obs.Log().Info("signal received, shutting down")
	}
	ist := svc.Stats()
	fmt.Printf("monitored %d rounds, %d alarms raised; ingest: %d windows from %d tenants (%.0f windows/s, p99 %.2f ms)\n",
		round, alarms, ist.WindowsProcessed, ist.Tenants, ist.WindowsPerSec, ist.VerdictLatencyP99MS)

	of.manifest.Config["classifier"] = *classifier
	of.manifest.Config["precision"] = prec.String()
	of.manifest.Config["rounds"] = fmt.Sprint(round)
	of.manifest.Config["ingest_windows"] = fmt.Sprint(ist.WindowsProcessed)
	of.manifest.Config["ingest_tenants"] = fmt.Sprint(ist.Tenants)
	if *rulesPath != "" {
		of.manifest.Config["rules"] = *rulesPath
	}
	if *incidentDir != "" {
		of.manifest.Config["incident_dir"] = *incidentDir
	}
	if err := of.writeManifest("", *seed, *scale, nil, 0, 0); err != nil {
		return err
	}
	// finish() drains the telemetry server gracefully (open /events
	// streams are closed, in-flight scrapes complete).
	return of.finish()
}
