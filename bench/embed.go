package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

const (
	// The MLP trains on a seed-1 database of 980 rows; the stream cycles
	// 64 distinct 512-window batches cut from a 980-row traffic database.
	embedTrainScale   = 0.02
	embedTrafficScale = 0.02
	embedBatch        = drainChunk
	embedPool         = 64
	// embedInFlight is how many batches the producer keeps waiting for
	// verdicts: 16,384 windows, enough that the shard never runs dry, and
	// a fixed amount of queued work, so a batch's latency is that work
	// over the drain rate rather than however full the service's queues
	// happen to be.
	embedInFlight = 32
	// embedPrefix is the stream prefix whose per-tenant scoreboards the
	// drain replay must reproduce byte for byte: 16 batches per tenant,
	// two quality epochs each.
	embedPrefix = 16 * tenants
	// embedProbe is how many batches the traced run sends through the
	// unstarted services: a full queue's worth per tenant.
	embedProbe = 32 * tenants
)

// newEmbedService builds the in-process service the way an embedding
// program would: one shard, drift detection armed, its own registry.
func newEmbedService(d *detector) (*ingest.Service, *obs.Registry, error) {
	reg := obs.NewRegistry()
	svc, err := ingest.New(ingest.Config{Classifier: d.clf, Events: d.events, Baseline: d.base,
		Shards: 1, Registry: reg, Bus: obs.NewBus()})
	return svc, reg, err
}

func runEmbed(r *run) error {
	var det *detector
	var svc *ingest.Service
	var reg *obs.Registry
	for i := 0; i < setupReps; i++ {
		if err := r.timeSetup(func() error {
			var err error
			if det, err = trainDetector("MLP", embedTrainScale); err != nil {
				return err
			}
			svc, reg, err = newEmbedService(det)
			return err
		}); err != nil {
			return err
		}
	}
	tr, err := newTraffic(r.seed, embedTrafficScale)
	if err != nil {
		return err
	}
	pool := make([][]ingest.Window, embedPool)
	poolMalware := make([]int64, embedPool)
	for i := range pool {
		pool[i] = tr.windows(i*embedBatch, embedBatch)
		if poolMalware[i], err = det.malware(pool[i]); err != nil {
			return err
		}
	}

	if err := embedPrefixCheck(r, det, pool); err != nil {
		return err
	}

	// One producer enqueues batch k for tenant k mod 8 until the timed
	// phase ends, keeping at most embedInFlight batches without verdicts,
	// as a caller that acts on its verdicts does. While it waits
	// for room it polls the tenants' processed counts, which is when each
	// batch's windows all have verdicts (a tenant drains in arrival
	// order).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type pending struct {
		cum int64
		at  time.Duration
	}
	var (
		queues                [tenants][]pending
		cum                   [tenants]int64
		k                     int
		wantMalware, queueMax int64
		lastPoll              time.Duration
		lateMS                []float64
	)
	index := map[string]int{}
	for t, id := range tenantIDs {
		index[id] = t
	}
	clk := newWallClock()
	poll := func() {
		now := clk.now()
		lastPoll = now
		var queued int64
		for _, ts := range svc.Tenants() {
			t := index[ts.ID]
			queued += int64(ts.Queued)
			q := queues[t]
			for len(q) > 0 && q[0].cum <= ts.WindowsProcessed {
				r.latencyMS["batch"] = append(r.latencyMS["batch"], float64(now-q[0].at)/float64(time.Millisecond))
				q = q[1:]
			}
			queues[t] = q
		}
		queueMax = max(queueMax, queued)
	}
	cost := startPhase()
	start := clk.now()
	svc.Start(ctx)
	until := start + r.seconds
	for clk.now() < until {
		t := k % tenants
		batch := pool[k%embedPool]
		due := clk.now()
		for k-len(r.latencyMS["batch"]) >= embedInFlight {
			poll()
			time.Sleep(200 * time.Microsecond)
		}
		at := clk.now()
		if _, err := svc.Enqueue(tenantID(t), "", batch); err != nil {
			return fmt.Errorf("enqueue: %w", err)
		}
		lateMS = append(lateMS, float64(at-due)/float64(time.Millisecond))
		cum[t] += embedBatch
		queues[t] = append(queues[t], pending{cum: cum[t], at: at})
		wantMalware += poolMalware[k%embedPool]
		k++
		if clk.now()-lastPoll > 500*time.Microsecond {
			poll()
		}
	}
	for !svc.Drained() {
		poll()
		time.Sleep(200 * time.Microsecond)
	}
	poll()
	windows := int64(k) * embedBatch
	// The rate is every window enqueued over the time until the last one
	// has its verdict.
	r.itemsPerS = float64(windows) / (clk.now() - start).Seconds()
	cost.finish(r, float64(windows))
	cancel()

	r.ops(k, 0)
	st := svc.Stats()
	r.check(st.WindowsProcessed == windows, "embed-mlp: %d windows processed, %d enqueued", st.WindowsProcessed, windows)
	r.check(st.MalwareWindows == wantMalware, "embed-mlp: %d malware verdicts, the compiled MLP gives %d", st.MalwareWindows, wantMalware)
	r.check(len(r.latencyMS["batch"]) == k, "embed-mlp: %d of %d batches saw their verdicts", len(r.latencyMS["batch"]), k)

	// A batch is due when the producer turns to it, so its lateness is
	// the time it waited for room among the batches in flight.
	_, r.layer["gen.late_tail_ms"] = tail(lateMS)
	r.layer["ingest.requests"] = float64(k)
	r.layer["ingest.queue_max"] = float64(queueMax)
	r.layer["ingest.verdict_10ms_frac"] = fracWithin(registryBuckets(reg, ingest.VerdictLatencyMetric), 0.01)
	if !r.traced {
		return nil
	}
	reqs := make([]request, embedProbe)
	for i := range reqs {
		if reqs[i], err = newRequest(tenantID(i), pool[i%embedPool]); err != nil {
			return err
		}
	}
	newSvc := func() (*ingest.Service, error) {
		s, _, err := newEmbedService(det)
		return s, err
	}
	return traceServing(r, det, newSvc, reqs, false)
}

// embedPrefixCheck feeds the first embedPrefix batches of the stream to a
// fresh service, lets it drain, and requires each tenant's scoreboard to
// be byte-identical to the drain replay's over the same windows.
func embedPrefixCheck(r *run, det *detector, pool [][]ingest.Window) error {
	svc, _, err := newEmbedService(det)
	if err != nil {
		return err
	}
	reqs := make([]request, embedPrefix)
	for i := range reqs {
		reqs[i] = request{tenant: tenantID(i), windows: pool[i%embedPool]}
		if _, err := svc.Enqueue(reqs[i].tenant, "", reqs[i].windows); err != nil {
			return fmt.Errorf("prefix enqueue: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	for !svc.Drained() {
		time.Sleep(time.Millisecond)
	}
	order, streams := byTenant(reqs)
	dr := newDrainReplay(det)
	for _, id := range order {
		if err := dr.stream(nil, id, streams[id]); err != nil {
			return err
		}
		got, ok := svc.TenantQuality(id)
		want, err := json.Marshal(dr.tenants[id].board.Snapshot())
		if err != nil {
			return err
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			return err
		}
		r.check(ok && string(gotJSON) == string(want), "embed-mlp: tenant %s scoreboard differs from the drain replay", id)
	}
	return nil
}

// registryBuckets converts an in-process histogram to the bucket form
// the /metrics parser produces.
func registryBuckets(reg *obs.Registry, name string) []bucket {
	h := reg.Snapshot().Histograms[name]
	var out []bucket
	for i, c := range h.Counts {
		le := math.Inf(1)
		if i < len(h.Buckets) {
			le = h.Buckets[i]
		}
		out = append(out, bucket{le: le, count: float64(c)})
	}
	return out
}
