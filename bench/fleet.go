package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

const (
	// The daemon trains J48 on a seed-1 database of 980 rows; traffic is
	// 64-window batches cut from a 512-row traffic database.
	fleetServeScale   = 0.02
	fleetTrafficScale = 0.01
	fleetBatch        = 64
	fleetBodies       = 16
	// Phase A sends 512-window batches: with two requests in flight, a
	// request must carry enough work that the daemon, not the round trip
	// between client and server, is what saturates.
	fleetBulkBatch  = 512
	fleetBulkBodies = 2
	// Phase B offers this load, about a seventh of what phase A sustains
	// on two cores, plus the reads of fleetViewers operators. A request
	// holds one of the two connections for about a millisecond, so this
	// keeps each connection about a third busy: at higher loads requests
	// queue behind each other at the client, and the tail measures that
	// queue more than the daemon.
	fleetRate = 30000.0 // windows/s
	// fleetViewers is how many operators watch the daemon in phase B:
	// one per tenant, each with the dashboard page open and `hpcmal top`
	// running, which makes about 93 reads/s.
	fleetViewers = tenants
	// fleetProbe is how many requests the traced run sends through the
	// unstarted services: half a queue's worth per tenant.
	fleetProbe = 128 * tenants
)

// kindIngest is the op kind of an ingest batch; kind 1+i is a read of
// fleetPolls()[i].
const kindIngest = 0

// poll is a request one of the daemon's clients repeats, and how often.
type poll struct {
	path  string
	every time.Duration
}

// fleetPolls is what one viewer requests, as the two clients in this
// repository do. The dashboard page (internal/telemetry/dashboard.go)
// queries its nine panels every 2 s, the recent traces every 3 s, the
// latest CPU profile every 5 s and the deployed models every 10 s.
// `hpcmal top` (cmd/hpcmal/top.go) renders a frame every 2 s from
// /readyz, the series catalog, the same nine panels, /api/v1/tenants and
// the alert history.
func fleetPolls() []poll {
	panels := [][2]string{
		{"trace.windows_simulated", "rate"}, {"online.alarms", "rate"}, {"quality.f1", "avg"},
		{"drift.features_drifting", "max"}, {"obs.events_dropped", "rate"}, {"tsdb.scrape_ms:p99", "avg"},
		{"runtime.goroutines", "avg"}, {"runtime.gc_pause_p99_ms", "max"}, {"runtime.heap_objects_bytes", "avg"},
	}
	const frame = 2 * time.Second
	polls := []poll{
		{"/api/v1/traces?limit=12", 3 * time.Second},
		{"/api/v1/profiles?type=cpu&limit=1", 5 * time.Second},
		{"/api/v1/models", 10 * time.Second},
		{"/readyz", frame},
		{"/api/v1/series", frame},
		{"/api/v1/tenants", frame},
		{"/api/v1/alerts/history", frame},
	}
	for _, p := range panels {
		polls = append(polls,
			poll{"/api/v1/query_range?metric=" + url.QueryEscape(p[0]) + "&from=now-5m&to=now&agg=" + p[1], frame},
			poll{"/api/v1/query_range?metric=" + p[0] + "&from=now-300s&to=now&agg=" + p[1], frame})
	}
	return polls
}

func fleetArgs() []string {
	return []string{"-replay=false", "-scale", fmt.Sprint(fleetServeScale), "-seed", "1"}
}

func runFleet(r *run) error {
	clients := []*http.Client{newClient(), newClient()}
	c0 := clients[0]
	logPath := filepath.Join(r.outDir, fmt.Sprintf("serve-%d.log", r.seed))
	var d *daemon
	for i := 0; i < setupReps; i++ {
		var ready time.Duration
		var err error
		if d, ready, err = startDaemon(c0, r.bin, fleetArgs(), logPath); err != nil {
			return err
		}
		// The set-up's CPU time is the daemon's: the harness only waits.
		cpu, err := procCPU(d.pid)
		if err != nil {
			d.stop()
			return err
		}
		r.setup = append(r.setup, setupCost{cpu: cpu, wall: ready})
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping daemon: %w", err)
			}
			c0.CloseIdleConnections()
		}
	}
	defer d.stop()

	// The harness prepares its inputs while the daemon's profiler runs
	// its first duty window, which starts with the process; timing begins
	// after it, in the steady state the daemon spends most of its life in.
	// The reference detector is trained exactly as the daemon trains its
	// own, so the harness knows which windows the daemon must flag.
	det, err := trainDetector("J48", fleetServeScale)
	if err != nil {
		return err
	}
	tr, err := newTraffic(r.seed, fleetTrafficScale)
	if err != nil {
		return err
	}
	small, err := newPool(det, tr, fleetBodies*tenants, fleetBatch)
	if err != nil {
		return err
	}
	bulk, err := newPool(det, tr, fleetBulkBodies*tenants, fleetBulkBatch)
	if err != nil {
		return err
	}
	if err := d.awaitFirstProfile(c0); err != nil {
		return err
	}
	// The load generator waits on the network almost all the time; one
	// processor is plenty for it and leaves the daemon both CPUs rather
	// than contending for them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Nor does it collect garbage while it measures: its own pauses would
	// show up in the latency it reports. The phases allocate some tens of
	// MiB.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)

	var accepted, rejected, wantMalware atomic.Int64
	post := func(w int, p *pool) (int, error) {
		q, malware := p.take()
		req, err := http.NewRequest(http.MethodPost, d.url+"/api/v1/ingest", bytes.NewReader(q.body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ingest.TenantHeader, q.tenant)
		resp, err := clients[w].Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted.Add(int64(len(q.windows)))
			wantMalware.Add(malware)
		case http.StatusTooManyRequests:
			rejected.Add(1)
		}
		return resp.StatusCode, nil
	}
	// settle waits until the daemon has a verdict for every accepted
	// window.
	settle := func() (ingestStats, error) {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
			st, err := d.stats(c0)
			if err != nil || (st.Queued == 0 && st.WindowsProcessed >= accepted.Load()) {
				return st, err
			}
			if time.Now().After(deadline) {
				return st, fmt.Errorf("daemon did not drain: %+v, %d accepted", st, accepted.Load())
			}
		}
	}
	before, err := d.metrics(c0)
	if err != nil {
		return err
	}
	// Phase B gets two thirds of the run: its tail rests on the few
	// requests that meet one of the daemon's GC cycles or scrapes, and
	// needs the count.
	phaseA := r.seconds / 3

	// Phase A: two keep-alive clients in a closed loop of bulk batches
	// saturate ingest. Its rate is the windows accepted over the time
	// until the last of them has its verdict. Client 0 also reads the
	// daemon's queue depth every 50 ms. A 429 here is backpressure, not a
	// failure.
	clk := newWallClock()
	var queueMax int64
	startA := clk.now()
	lastPoll := startA - time.Second
	outsA := closedLoop(clk, startA+phaseA, workers, func(w int) bool {
		if now := clk.now(); w == 0 && now-lastPoll > 50*time.Millisecond {
			lastPoll = now
			if st, err := d.stats(c0); err == nil {
				queueMax = max(queueMax, st.Queued)
			}
		}
		code, err := post(w, bulk)
		return err == nil && (code == http.StatusAccepted || code == http.StatusTooManyRequests)
	})
	acceptedA, rejectedA := accepted.Load(), rejected.Load()
	if _, err := settle(); err != nil {
		return err
	}
	r.itemsPerS = float64(acceptedA) / (clk.now() - startA).Seconds()

	// Phase B: an open loop at a fixed offered load, timed from each
	// request's due time; every non-2xx is a failure.
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	polls := fleetPolls()
	rates := []float64{fleetRate / fleetBatch}
	for _, p := range polls {
		rates = append(rates, fleetViewers/p.every.Seconds())
	}
	ops := schedule(r.seconds-phaseA, rates...)
	startB := clk.now() + 10*time.Millisecond
	for i := range ops {
		ops[i].due += startB
	}
	outsB := openLoop(clk, ops, workers, func(w int, o op) bool {
		if o.kind == kindIngest {
			code, err := post(w, small)
			return err == nil && code == http.StatusAccepted
		}
		code, _, err := get(clients[w], d.url+polls[o.kind-1].path)
		return err == nil && code == http.StatusOK
	})
	debug.SetGCPercent(gcPercent)
	final, err := settle()
	if err != nil {
		return err
	}
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	after, err := d.metrics(c0)
	if err != nil {
		return err
	}
	if r.rssMiB, err = procPeakMiB(d.pid); err != nil {
		return err
	}

	acceptedB := accepted.Load() - acceptedA
	r.cpuPerItem = (cpu1 - cpu0) / time.Duration(max(acceptedB, 1))
	ingestsB := 0
	for _, o := range outsB {
		kind := "read"
		if o.kind == kindIngest {
			kind = "ingest"
			ingestsB++
		}
		if o.ok {
			r.latencyMS[kind] = append(r.latencyMS[kind], float64(o.latency())/float64(time.Millisecond))
		}
	}
	r.ops(len(outsA)+len(outsB), countFailed(outsA)+countFailed(outsB))
	all := accepted.Load()
	r.check(final.WindowsIngested == all && final.WindowsProcessed == all,
		"fleet-http: daemon ingested %d and processed %d windows, %d were accepted", final.WindowsIngested, final.WindowsProcessed, all)
	r.check(final.MalwareWindows == wantMalware.Load(),
		"fleet-http: daemon flagged %d windows, the reference J48 flags %d", final.MalwareWindows, wantMalware.Load())
	r.check(final.BatchesRejected == rejectedA && rejected.Load() == rejectedA,
		"fleet-http: daemon rejected %d batches, phase A saw %d 429s and phase B %d", final.BatchesRejected, rejectedA, rejected.Load()-rejectedA)
	hb, err := histogram(before, "ingest_verdict_latency_seconds")
	if err != nil {
		return err
	}
	ha, err := histogram(after, "ingest_verdict_latency_seconds")
	if err != nil {
		return err
	}
	verdicts, err := histogramDelta(hb, ha)
	if err != nil {
		return err
	}
	r.check(int64(total(verdicts)) == all, "fleet-http: /metrics counted %v verdicts, %d windows were accepted", total(verdicts), all)

	r.layer["gen.late_tail_ms"] = lateTailMS(outsB)
	r.layer["ingest.requests"] = float64(len(outsA) + ingestsB)
	r.layer["ingest.rejected_frac"] = float64(rejectedA) / float64(len(outsA))
	r.layer["ingest.queue_max"] = float64(queueMax)
	r.layer["ingest.verdict_10ms_frac"] = fracWithin(verdicts, 0.01)
	gcBefore, _ := promValue(before, "runtime_gc_cycles")
	gcAfter, _ := promValue(after, "runtime_gc_cycles")
	allocBefore, _ := promValue(before, "runtime_heap_allocs_bytes")
	allocAfter, _ := promValue(after, "runtime_heap_allocs_bytes")
	r.layer["proc.gc_cycles_per_mitem"] = (gcAfter - gcBefore) / float64(all) * 1e6
	r.layer["proc.alloc_bytes_per_item"] = (allocAfter - allocBefore) / float64(all)
	if !r.traced {
		return nil
	}
	newSvc := func() (*ingest.Service, error) {
		reg := obs.NewRegistry()
		return ingest.New(ingest.Config{Classifier: det.clf, Events: det.events, Baseline: det.base,
			Tracer:   obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 0.05, Registry: reg}),
			Registry: reg, Bus: obs.NewBus()})
	}
	reqs := make([]request, fleetProbe)
	for i := range reqs {
		reqs[i] = small.reqs[i%len(small.reqs)]
	}
	return traceServing(r, det, newSvc, reqs, true)
}

// pool cycles through pre-encoded requests; malware[j] is how many
// windows of reqs[j] the daemon must flag.
type pool struct {
	reqs    []request
	malware []int64
	next    atomic.Int64
}

func newPool(det *detector, tr *traffic, n, batch int) (*pool, error) {
	p := &pool{reqs: make([]request, n), malware: make([]int64, n)}
	for j := range p.reqs {
		var err error
		if p.reqs[j], err = newRequest(tenantID(j), tr.windows(j/tenants*batch, batch)); err != nil {
			return nil, err
		}
		if p.malware[j], err = det.malware(p.reqs[j].windows); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// take returns the next request, for any of the load goroutines.
func (p *pool) take() (request, int64) {
	j := int(p.next.Add(1)-1) % len(p.reqs)
	return p.reqs[j], p.malware[j]
}
