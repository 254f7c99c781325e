package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/quality"
)

const (
	// tenants × endpoints is the simulated fleet both serving workloads
	// drive.
	tenants   = 8
	endpoints = 16
	// rotateEvery and drainChunk mirror ingest's defaults: quality epochs
	// of 4,096 windows per tenant, drained 512 windows at a time.
	rotateEvery = 4096
	drainChunk  = 512
)

// tenantIDs names the simulated fleet's tenants; request k goes to
// tenant k mod tenants.
var tenantIDs = func() (ids [tenants]string) {
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%d", i)
	}
	return ids
}()

func tenantID(k int) string { return tenantIDs[k%tenants] }

// traffic is a labelled window stream generated from the run's seed,
// disjoint from the detector's seed-1 training database.
type traffic struct {
	rows   [][]float64
	labels []int
}

func newTraffic(seed uint64, scale float64) (*traffic, error) {
	s := validSeeds(seed^0x5bd1e995, scale, 1)[0]
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: s, Scale: scale})
	if err != nil {
		return nil, err
	}
	t := &traffic{labels: tbl.BinaryLabels()}
	for i := range tbl.Instances {
		t.rows = append(t.rows, tbl.Instances[i].Features)
	}
	return t, nil
}

// labelValues backs Window.Label, so windows share two ints instead of
// allocating one each.
var labelValues = [2]int{0, 1}

// windows returns n windows starting at row off, wrapping around the
// stream. Consecutive runs of four windows share an endpoint, so each
// batch spreads over the tenant's endpoints.
func (t *traffic) windows(off, n int) []ingest.Window {
	ws := make([]ingest.Window, n)
	for i := range ws {
		k := (off + i) % len(t.rows)
		ws[i] = ingest.Window{
			Endpoint: fmt.Sprintf("ep-%02d", (off+i)/4%endpoints),
			Label:    &labelValues[t.labels[k]],
			Values:   t.rows[k],
		}
	}
	return ws
}

// detector is a binary classifier trained exactly as `hpcmal serve`
// trains its own: seed 1, all rows of a database at the given scale.
type detector struct {
	clf    ml.Classifier
	prog   *infer.Program
	events []string
	base   *quality.Baseline
}

func trainDetector(name string, scale float64) (*detector, error) {
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: 1, Scale: scale})
	if err != nil {
		return nil, err
	}
	clf, err := core.NewClassifier(name, 1)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(tbl.Instances))
	for i := range tbl.Instances {
		rows[i] = tbl.Instances[i].Features
	}
	if err := clf.Train(rows, tbl.BinaryLabels(), 2); err != nil {
		return nil, err
	}
	prog, err := infer.Compile(clf)
	if err != nil {
		return nil, err
	}
	base, err := quality.CaptureBaseline(tbl.Attributes, rows, 16)
	if err != nil {
		return nil, err
	}
	return &detector{clf: clf, prog: prog, events: tbl.Attributes, base: base}, nil
}

// malware counts the windows the detector classifies as malware.
func (d *detector) malware(ws []ingest.Window) (int64, error) {
	x := make([][]float64, len(ws))
	for i := range ws {
		x[i] = ws[i].Values
	}
	dst := make([]int, len(ws))
	if err := d.prog.Predict(dst, x); err != nil {
		return 0, err
	}
	var n int64
	for _, p := range dst {
		n += int64(p)
	}
	return n, nil
}

// request is one ingest batch: its tenant, its windows, and their JSON
// encoding as POST /api/v1/ingest takes it.
type request struct {
	tenant  string
	windows []ingest.Window
	body    []byte
}

func newRequest(tenant string, ws []ingest.Window) (request, error) {
	body, err := json.Marshal(ingest.Batch{Windows: ws})
	return request{tenant: tenant, windows: ws, body: body}, err
}

// probeHTTP times the ingest layer's HTTP entry point, ServeHTTP
// (decode, validate, enqueue), on a service that was never started, so
// nothing drains concurrently. It returns the windows accepted.
func probeHTTP(rec *recorder, svc *ingest.Service, reqs []request) (int64, error) {
	h := svc.Handler()
	var windows int64
	for _, q := range reqs {
		hr := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(q.body))
		hr.Header.Set(ingest.TenantHeader, q.tenant)
		w := httptest.NewRecorder()
		n := int64(len(q.windows))
		root := rec.begin("bench.request")
		sp := rec.begin("ingest.Service.ServeHTTP")
		h.ServeHTTP(w, hr)
		rec.end(sp, n)
		rec.end(root, n)
		if w.Code != http.StatusAccepted {
			return 0, fmt.Errorf("probe ingest: status %d: %s", w.Code, w.Body.String())
		}
		windows += n
	}
	return windows, nil
}

// probeEnqueue times Enqueue alone, on another unstarted service; the
// difference from probeHTTP is the cost of the HTTP surface.
func probeEnqueue(rec *recorder, svc *ingest.Service, reqs []request) error {
	for _, q := range reqs {
		n := int64(len(q.windows))
		root := rec.begin("bench.batch")
		sp := rec.begin("ingest.Service.Enqueue")
		_, err := svc.Enqueue(q.tenant, "", q.windows)
		rec.end(sp, n)
		rec.end(root, n)
		if err != nil {
			return fmt.Errorf("probe enqueue: %w", err)
		}
	}
	return nil
}

// drainReplay re-executes what an ingest shard does with each chunk it
// drains — predict, probabilities, scoreboard, drift, per-endpoint alarm
// smoothing, epoch rotation — from the public calls of infer, quality
// and online, one layer at a time so each gets its own span. Splitting
// the per-window loop by layer keeps the results identical: the layers
// share no state, and rotation falls on a chunk boundary because
// rotateEvery is a multiple of drainChunk.
type drainReplay struct {
	prog    *infer.Program
	base    *quality.Baseline
	reg     *obs.Registry
	bus     *obs.Bus
	tenants map[string]*replayTenant
	x       [][]float64
	dst     []int
	proba   [][]float64
}

type replayTenant struct {
	board *quality.Scoreboard
	drift *quality.DriftDetector
	vote  map[string]*online.MajorityVoter
	since int
}

func newDrainReplay(d *detector) *drainReplay {
	r := &drainReplay{prog: d.prog, base: d.base, reg: obs.NewRegistry(), bus: obs.NewBus(),
		tenants: map[string]*replayTenant{}, dst: make([]int, drainChunk)}
	if d.prog.HasProba() {
		r.proba = make([][]float64, drainChunk)
		for i := range r.proba {
			r.proba[i] = make([]float64, d.prog.NumClasses())
		}
	}
	return r
}

func (r *drainReplay) tenant(id string) (*replayTenant, error) {
	if t := r.tenants[id]; t != nil {
		return t, nil
	}
	drift, err := quality.NewDriftDetector(r.base, quality.DriftConfig{Registry: r.reg, Bus: r.bus})
	if err != nil {
		return nil, err
	}
	t := &replayTenant{board: quality.NewScoreboard(quality.Config{Registry: r.reg}),
		drift: drift, vote: map[string]*online.MajorityVoter{}}
	r.tenants[id] = t
	return t, nil
}

// stream replays one tenant's windows in drain-sized chunks.
func (r *drainReplay) stream(rec *recorder, tenant string, ws []ingest.Window) error {
	for len(ws) > 0 {
		n := min(len(ws), drainChunk)
		if err := r.chunk(rec, tenant, ws[:n]); err != nil {
			return err
		}
		ws = ws[n:]
	}
	return nil
}

func (r *drainReplay) chunk(rec *recorder, tenant string, ws []ingest.Window) error {
	t, err := r.tenant(tenant)
	if err != nil {
		return err
	}
	n := int64(len(ws))
	r.x = r.x[:0]
	for i := range ws {
		r.x = append(r.x, ws[i].Values)
	}
	dst := r.dst[:n]
	root := rec.begin("bench.chunk")
	defer rec.end(root, n)

	sp := rec.begin("infer.Program.Predict")
	err = r.prog.Predict(dst, r.x)
	rec.end(sp, n)
	if err != nil {
		return err
	}
	if r.proba != nil {
		sp = rec.begin("infer.Program.Proba")
		err = r.prog.Proba(r.proba[:n], r.x)
		rec.end(sp, n)
		if err != nil {
			return err
		}
	}

	sp = rec.begin("quality.Scoreboard.Observe")
	for i := range ws {
		if ws[i].Label == nil {
			continue
		}
		score := float64(dst[i])
		if r.proba != nil {
			score = r.proba[i][1]
		}
		t.board.Observe(*ws[i].Label, dst[i], score)
	}
	rec.end(sp, n)

	sp = rec.begin("quality.DriftDetector.Observe")
	for i := range ws {
		t.drift.Observe(ws[i].Values)
	}
	rec.end(sp, n)

	sp = rec.begin("online.MajorityVoter.Observe")
	for i := range ws {
		v := t.vote[ws[i].Endpoint]
		if v == nil {
			v = &online.MajorityVoter{Window: 8, Threshold: 0.5}
			v.Reset()
			t.vote[ws[i].Endpoint] = v
		}
		v.Observe(dst[i])
	}
	rec.end(sp, n)

	if t.since += int(n); t.since >= rotateEvery {
		sp = rec.begin("quality.Scoreboard.Advance")
		t.board.Advance()
		rec.end(sp, 0)
		sp = rec.begin("quality.DriftDetector.Advance")
		t.drift.Advance()
		rec.end(sp, 0)
		// The shard takes no snapshot itself; one per epoch prices what
		// GET /api/v1/tenants/{id}/quality serves.
		sp = rec.begin("quality.Scoreboard.Snapshot")
		t.board.Snapshot()
		rec.end(sp, 1)
		t.since = 0
	}
	return nil
}

// byTenant groups requests' windows per tenant, in request order: the
// order a tenant's queue hands them to its shard.
func byTenant(reqs []request) (order []string, streams map[string][]ingest.Window) {
	streams = map[string][]ingest.Window{}
	for _, q := range reqs {
		if _, ok := streams[q.tenant]; !ok {
			order = append(order, q.tenant)
		}
		streams[q.tenant] = append(streams[q.tenant], q.windows...)
	}
	return order, streams
}

// traceServing runs the serving workloads' traced replay: the two
// ingest probes, then the drain replay over the same windows, once
// untraced and once under spans. Of the two probes, the one on the
// workload's own path (ServeHTTP for fleet-http, whose windows arrive
// over HTTP; Enqueue for embed-mlp, which calls it directly) is recorded
// with the drain replay; the other only yields the HTTP surface's cost,
// and stays out of the shares, coverage and attribution.
func traceServing(r *run, d *detector, newSvc func() (*ingest.Service, error), reqs []request, viaHTTP bool) error {
	path, side := newRecorders(), newRecorders()
	httpRec, enqRec := path.get(), side.get()
	if !viaHTTP {
		httpRec, enqRec = enqRec, httpRec
	}
	svc, err := newSvc()
	if err != nil {
		return err
	}
	windows, err := probeHTTP(httpRec, svc, reqs)
	if err != nil {
		return err
	}
	if svc, err = newSvc(); err != nil {
		return err
	}
	if err := probeEnqueue(enqRec, svc, reqs); err != nil {
		return err
	}

	order, streams := byTenant(reqs)
	replay := func(rec *recorder) (time.Duration, error) {
		dr := newDrainReplay(d)
		// Collect the probes' garbage first: a concurrent mark would
		// compete with the replay for memory bandwidth, which the timed
		// phase's drain does not do.
		runtime.GC()
		t := time.Now()
		for _, id := range order {
			if err := dr.stream(rec, id, streams[id]); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	plain, err := replay(nil)
	if err != nil {
		return err
	}
	traced, err := replay(path.get())
	if err != nil {
		return err
	}

	sum, probes := path.summarize(), side.summarize()
	spanLayers(r, sum, plain, traced)
	r.layer["proc.attributed_frac"] = float64(sum.layerNS) / float64(windows) / float64(r.cpuPerItem)
	r.layer["dataset.rows"] = float64(windows)
	r.layer["infer.predict_windows_per_s"] = sum.rate("infer.Program.Predict")
	r.layer["infer.proba_windows_per_s"] = sum.rate("infer.Program.Proba")
	h, e := sum.byName["ingest.Service.ServeHTTP"], probes.byName["ingest.Service.Enqueue"]
	if !viaHTTP {
		h, e = probes.byName["ingest.Service.ServeHTTP"], sum.byName["ingest.Service.Enqueue"]
	}
	r.layer["ingest.enqueue_windows_per_s"] = float64(e.items) / (float64(e.selfNS) / 1e9)
	if h.selfNS > e.selfNS {
		r.layer["ingest.decode_windows_per_s"] = float64(windows) / (float64(h.selfNS-e.selfNS) / 1e9)
	}
	r.layer["quality.board_windows_per_s"] = sum.rate("quality.Scoreboard.Observe")
	r.layer["quality.drift_windows_per_s"] = sum.rate("quality.DriftDetector.Observe")
	r.layer["quality.snapshots_per_s"] = sum.rate("quality.Scoreboard.Snapshot")
	r.layer["online.smooth_windows_per_s"] = sum.rate("online.MajorityVoter.Observe")
	return writeSpans(r, path, side)
}
