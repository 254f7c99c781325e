package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ml/mltest"
	"repro/internal/ml/tree"
	"repro/internal/obs"
	"repro/internal/quality"
)

// stubClf is a deterministic uncompilable classifier: malware iff the
// first feature exceeds 0.5. It exercises the interpreted fallback.
type stubClf struct{}

func (stubClf) Name() string                              { return "stub" }
func (stubClf) Train(_ [][]float64, _ []int, _ int) error { return nil }
func (stubClf) Predict(f []float64) int {
	if f[0] > 0.5 {
		return 1
	}
	return 0
}

func testConfig(t *testing.T, mut func(*Config)) Config {
	t.Helper()
	cfg := Config{
		Classifier: stubClf{},
		Events:     []string{"e0", "e1", "e2", "e3"},
		Registry:   obs.NewRegistry(),
		Bus:        obs.NewBus(),
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// win builds a labeled window whose first feature encodes the class.
func win(endpoint string, label int) Window {
	v := 0.1
	if label == 1 {
		v = 0.9
	}
	return Window{
		Endpoint: endpoint,
		Label:    &label,
		Values:   []float64{v, 0.2, 0.3, 0.4},
	}
}

// waitDrained spins until every queued window has been classified.
func waitDrained(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Drained() {
		if time.Now().After(deadline) {
			t.Fatalf("service did not drain; stats=%+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func postBatch(t *testing.T, h http.Handler, tenant string, b Batch) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) httpapi.ErrorEnvelope {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body not an envelope: %v\n%s", err, rec.Body.String())
	}
	return env
}

// TestBackpressureE2E fills a tenant queue before the workers run,
// asserts the 429 + Retry-After rejection, then starts the pipeline,
// drains, and asserts the tenant recovers to accepting batches.
func TestBackpressureE2E(t *testing.T) {
	s, err := New(testConfig(t, func(c *Config) {
		c.QueueCap = 64
		c.Shards = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Fill the queue exactly (workers are not running yet).
	batch := Batch{}
	for i := 0; i < 64; i++ {
		batch.Windows = append(batch.Windows, win("ep0", i%2))
	}
	if rec := postBatch(t, h, "acme", batch); rec.Code != http.StatusAccepted {
		t.Fatalf("fill: status %d: %s", rec.Code, rec.Body.String())
	}

	// One more window must bounce with 429 + Retry-After + queue_full.
	rec := postBatch(t, h, "acme", Batch{Windows: []Window{win("ep0", 0)}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overfill: status %d: %s", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q", ra)
	}
	if env := decodeErr(t, rec); env.Error.Code != httpapi.CodeQueueFull {
		t.Fatalf("code = %q", env.Error.Code)
	}

	// Start the pipeline, drain, and the tenant accepts again.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	waitDrained(t, s)
	if rec := postBatch(t, h, "acme", Batch{Windows: []Window{win("ep0", 1)}}); rec.Code != http.StatusAccepted {
		t.Fatalf("recovery: status %d: %s", rec.Code, rec.Body.String())
	}
	waitDrained(t, s)

	st := s.Stats()
	if st.WindowsProcessed != 65 || st.BatchesRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDropOldestPolicy opts a tenant into drop-oldest and asserts
// overflow evicts rather than rejects, reporting the eviction count.
func TestDropOldestPolicy(t *testing.T) {
	s, err := New(testConfig(t, func(c *Config) { c.QueueCap = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	first := Batch{Overflow: OverflowDropOldest}
	for i := 0; i < 8; i++ {
		first.Windows = append(first.Windows, win("ep", 0))
	}
	if rec := postBatch(t, h, "t1", first); rec.Code != http.StatusAccepted {
		t.Fatalf("fill: %d %s", rec.Code, rec.Body.String())
	}
	rec := postBatch(t, h, "t1", Batch{Windows: []Window{win("ep", 1), win("ep", 1)}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("drop-oldest overflow: %d %s", rec.Code, rec.Body.String())
	}
	var res Accepted
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Dropped != 2 || res.Queued != 8 {
		t.Fatalf("receipt = %+v", res)
	}
}

// TestIngestValidation is the table-driven schema-conformance test for
// POST /api/v1/ingest: every rejection is a 400 with the stable
// envelope, never a plain-text error.
func TestIngestValidation(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	lbl2 := 2

	cases := []struct {
		name    string
		tenant  string
		query   string
		ct      string
		body    string
		status  int
		code    string
		msgPart string
	}{
		{name: "no tenant", body: `{"windows":[{"values":[1,2,3,4]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "tenant"},
		{name: "bad tenant charset", tenant: "bad tenant!",
			body:   `{"windows":[{"values":[1,2,3,4]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "tenant"},
		{name: "header/query conflict", tenant: "a", query: "?tenant=b",
			body:   `{"windows":[{"values":[1,2,3,4]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "conflicting"},
		{name: "header/body conflict", tenant: "a",
			body:   `{"tenant":"b","windows":[{"values":[1,2,3,4]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "conflicting"},
		{name: "not json", tenant: "t", body: `garbage`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "decoding"},
		{name: "unknown field", tenant: "t", body: `{"windoze":[]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "decoding"},
		{name: "empty batch", tenant: "t", body: `{"windows":[]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "no windows"},
		{name: "oversize batch", tenant: "t",
			body: func() string {
				b := Batch{}
				for i := 0; i <= maxBatchWindows; i++ {
					b.Windows = append(b.Windows, win("e", 0))
				}
				j, _ := json.Marshal(b)
				return string(j)
			}(),
			status: 400, code: httpapi.CodeBadRequest, msgPart: "exceeds"},
		{name: "wrong dim", tenant: "t", body: `{"windows":[{"values":[1,2]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "features"},
		{name: "non-finite value", tenant: "t",
			body:   `{"windows":[{"values":[1,2,3,"nan"]}]}`,
			status: 400, code: httpapi.CodeBadRequest},
		{name: "bad label", tenant: "t",
			body: func() string {
				j, _ := json.Marshal(Batch{Windows: []Window{{Label: &lbl2, Values: []float64{1, 2, 3, 4}}}})
				return string(j)
			}(),
			status: 400, code: httpapi.CodeBadRequest, msgPart: "label"},
		{name: "bad overflow", tenant: "t",
			body:   `{"overflow":"spill","windows":[{"values":[1,2,3,4]}]}`,
			status: 400, code: httpapi.CodeBadRequest, msgPart: "overflow"},
		{name: "bad ndjson line", tenant: "t", ct: "application/x-ndjson",
			body:   "{\"values\":[1,2,3,4]}\nnot json\n",
			status: 400, code: httpapi.CodeBadRequest, msgPart: "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest"+tc.query,
				strings.NewReader(tc.body))
			ct := tc.ct
			if ct == "" {
				ct = "application/json"
			}
			req.Header.Set("Content-Type", ct)
			if tc.tenant != "" {
				req.Header.Set(TenantHeader, tc.tenant)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			env := decodeErr(t, rec)
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q want %q", env.Error.Code, tc.code)
			}
			if tc.msgPart != "" && !strings.Contains(env.Error.Message, tc.msgPart) {
				t.Fatalf("message %q missing %q", env.Error.Message, tc.msgPart)
			}
		})
	}
}

// TestNDJSONIngest streams windows as NDJSON with the tenant in the
// header, the snippet-1 style fleet wire format.
func TestNDJSONIngest(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for i := 0; i < 5; i++ {
		j, _ := json.Marshal(win(fmt.Sprintf("ep%d", i), i%2))
		lines.Write(j)
		lines.WriteByte('\n')
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(lines.String()))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(TenantHeader, "fleet-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res Accepted
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 5 || res.Tenant != "fleet-1" {
		t.Fatalf("receipt = %+v", res)
	}
}

// TestTenantLimit rejects one tenant too many with the tenant_limit
// envelope.
func TestTenantLimit(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the tenant map to two short of the limit, so the test drives
	// the real bound without allocating a thousand queues.
	for i := 0; i < maxTenants-2; i++ {
		s.tenants[fmt.Sprintf("filler-%04d", i)] = &tenant{}
	}
	h := s.Handler()
	one := Batch{Windows: []Window{win("e", 0)}}
	for _, id := range []string{"t1", "t2"} {
		if rec := postBatch(t, h, id, one); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: %d", id, rec.Code)
		}
	}
	rec := postBatch(t, h, "t3", one)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if env := decodeErr(t, rec); env.Error.Code != httpapi.CodeTenantLimit {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

// TestTenantEndpoints exercises the read side: list, summary, quality,
// drift, and the 404 envelopes for unknown tenants.
func TestTenantEndpoints(t *testing.T) {
	base, err := quality.CaptureBaseline([]string{"e0", "e1", "e2", "e3"},
		[][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}, {0.5, 0.5, 0.5, 0.5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(t, func(c *Config) { c.Baseline = base }))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	if rec := postBatch(t, h, "acme", Batch{Windows: []Window{win("e", 1), win("e", 0)}}); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d", rec.Code)
	}
	waitDrained(t, s)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	rec := get("/api/v1/tenants")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"acme"`) {
		t.Fatalf("tenants list: %d %s", rec.Code, rec.Body.String())
	}
	rec = get("/api/v1/tenants/acme")
	var sum TenantSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil || sum.WindowsProcessed != 2 {
		t.Fatalf("summary: %+v (err %v)", sum, err)
	}
	rec = get("/api/v1/tenants/acme/quality")
	var snap quality.QualitySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("quality: %v\n%s", err, rec.Body.String())
	}
	if snap.Observed != 2 {
		t.Fatalf("quality observed = %d\n%s", snap.Observed, rec.Body.String())
	}
	if rec = get("/api/v1/tenants/acme/drift"); rec.Code != 200 {
		t.Fatalf("drift: %d %s", rec.Code, rec.Body.String())
	}
	for _, path := range []string{"/api/v1/tenants/ghost", "/api/v1/tenants/ghost/quality", "/api/v1/tenants/ghost/drift"} {
		rec = get(path)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: %d", path, rec.Code)
		}
		if env := decodeErr(t, rec); env.Error.Code != httpapi.CodeNotFound {
			t.Fatalf("%s code = %q", path, env.Error.Code)
		}
	}
	// GET stats and a method violation.
	if rec = get("/api/v1/ingest"); rec.Code != 200 {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.WindowsProcessed != 2 {
		t.Fatalf("stats = %+v (err %v)", st, err)
	}
	recDel := httptest.NewRecorder()
	h.ServeHTTP(recDel, httptest.NewRequest(http.MethodDelete, "/api/v1/tenants", nil))
	if recDel.Code != http.StatusMethodNotAllowed || recDel.Header().Get("Allow") == "" {
		t.Fatalf("DELETE tenants: %d", recDel.Code)
	}
}

// streamBatches replays a fixed multi-tenant window stream into a
// service (optionally under request tracing) and returns each tenant's
// quality JSON after full drain.
func streamBatches(t *testing.T, shards int, rt *obs.ReqTracer) map[string]string {
	t.Helper()
	base, err := quality.CaptureBaseline([]string{"e0", "e1", "e2", "e3"},
		[][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(t, func(c *Config) {
		c.Shards = shards
		c.Baseline = base
		c.Tracer = rt
	}))
	if err != nil {
		t.Fatal(err)
	}
	s.rotateEvery = 16 // exercise epoch rotation inside the stream
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	h := s.Handler()

	tenants := []string{"t-a", "t-b", "t-c", "t-d", "t-e"}
	for round := 0; round < 10; round++ {
		for ti, id := range tenants {
			b := Batch{}
			for k := 0; k < 13; k++ {
				// Index-derived labels: deterministic, tenant-skewed.
				lbl := (round + ti + k) % 2
				w := win(fmt.Sprintf("ep%d", k%3), lbl)
				// Mislabel some windows so the confusion matrix is non-trivial.
				if (round+k)%7 == 0 {
					flipped := 1 - lbl
					w.Label = &flipped
				}
				b.Windows = append(b.Windows, w)
			}
			if rec := postBatch(t, h, id, b); rec.Code != http.StatusAccepted {
				t.Fatalf("round %d tenant %s: %d %s", round, id, rec.Code, rec.Body.String())
			}
		}
	}
	waitDrained(t, s)

	out := make(map[string]string, len(tenants))
	for _, id := range tenants {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/tenants/"+id+"/quality", nil))
		if rec.Code != 200 {
			t.Fatalf("quality %s: %d", id, rec.Code)
		}
		out[id] = rec.Body.String()
	}
	return out
}

// TestQualityDeterministicAcrossShards asserts the determinism
// contract at the fleet level: the same per-tenant batch stream yields
// byte-identical /api/v1/tenants/{id}/quality at 1 shard and 8 shards.
func TestQualityDeterministicAcrossShards(t *testing.T) {
	serial := streamBatches(t, 1, nil)
	sharded := streamBatches(t, 8, nil)
	for id, want := range serial {
		if got := sharded[id]; got != want {
			t.Fatalf("tenant %s quality differs between 1 and 8 shards:\n--- 1 shard\n%s\n--- 8 shards\n%s",
				id, want, got)
		}
	}
}

// TestAlarmRisingEdge drives one endpoint all-malware and asserts a
// single ingest_alarm event on the bus (rising edge, not per window).
func TestAlarmRisingEdge(t *testing.T) {
	bus := obs.NewBus()
	sub := bus.Subscribe(64)
	defer sub.Close()
	s, err := New(testConfig(t, func(c *Config) { c.Bus = bus }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	b := Batch{}
	for i := 0; i < 12; i++ {
		b.Windows = append(b.Windows, win("hot-ep", 1))
	}
	if rec := postBatch(t, s.Handler(), "acme", b); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d", rec.Code)
	}
	waitDrained(t, s)

	deadline := time.After(5 * time.Second)
	for {
		select {
		case e := <-sub.Events():
			if e.Type != EventAlarm {
				continue
			}
			if e.Sample != "hot-ep" || e.Class != "acme" {
				t.Fatalf("alarm event = %+v", e)
			}
		case <-deadline:
			t.Fatal("no ingest_alarm event")
		}
		break
	}
	if st := s.Stats(); st.Alarms != 1 {
		t.Fatalf("alarms = %d, want 1 (rising edge only)", st.Alarms)
	}
}

// TestEnqueueRejectsWrongDimension: an in-process batch holding one
// window of the wrong length is refused whole. Queued, it would fail
// its drain chunk's compiled predict, lose the good windows with it and
// leave the queued count above zero for good.
func TestEnqueueRejectsWrongDimension(t *testing.T) {
	x, y := mltest.TwoBlobs(3, 200)
	j := tree.NewJ48()
	if err := j.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Classifier: j, Events: []string{"e0", "e1"},
		Registry: obs.NewRegistry(), Bus: obs.NewBus()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	good := Window{Endpoint: "ep", Values: []float64{4, 4}}
	bad := Window{Endpoint: "ep", Values: []float64{4}}
	if _, err := s.Enqueue("acme", "", []Window{good, bad}); err == nil ||
		!strings.Contains(err.Error(), "window 1 has 1 features") {
		t.Fatalf("Enqueue(good, 1-feature) err = %v", err)
	}
	if st := s.Stats(); st.Queued != 0 || st.WindowsIngested != 0 || st.BatchesIngested != 0 {
		t.Fatalf("rejected batch left state behind: %+v", st)
	}
	if _, err := s.Enqueue("acme", "", []Window{good}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, s)
	if st := s.Stats(); st.WindowsProcessed != 1 || st.MalwareWindows != 1 {
		t.Fatalf("stats after the good batch = %+v", st)
	}
}

// TestReplayTenant: the reserved replay tenant takes in-process windows
// but no HTTP posts, answers on the read API, and exports its scoreboard
// and drift detector onto the service's own registry and bus, where the
// other tenants' stay private.
func TestReplayTenant(t *testing.T) {
	base, err := quality.CaptureBaseline([]string{"e0", "e1", "e2", "e3"},
		[][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := New(testConfig(t, func(c *Config) {
		c.Baseline = base
		c.Registry = reg
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(ReplayTenant); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, g := range []string{quality.F1Metric, quality.DriftingMetric} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %s not on the service registry: %v", g, snap.Gauges)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	h := s.Handler()

	rec := postBatch(t, h, ReplayTenant, Batch{Windows: []Window{win("e", 1)}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST to %s = %d %s", ReplayTenant, rec.Code, rec.Body.String())
	}
	if env := decodeErr(t, rec); env.Error.Code != httpapi.CodeBadRequest ||
		!strings.Contains(env.Error.Message, "reserved") {
		t.Fatalf("envelope = %+v", env)
	}
	if _, err := s.Enqueue(ReplayTenant, "", []Window{win("e", 1), win("e", 0)}); err != nil {
		t.Fatal(err)
	}
	if rec := postBatch(t, h, "acme", Batch{Windows: []Window{win("e", 1)}}); rec.Code != http.StatusAccepted {
		t.Fatalf("POST to acme = %d", rec.Code)
	}
	waitDrained(t, s)

	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/api/v1/tenants/"+ReplayTenant, nil))
	var sum TenantSummary
	if err := json.Unmarshal(get.Body.Bytes(), &sum); err != nil || get.Code != 200 ||
		sum.ID != ReplayTenant || sum.WindowsProcessed != 2 {
		t.Fatalf("GET replay tenant = %d %s", get.Code, get.Body.String())
	}
	// Only the replay's two labeled windows reach the service registry.
	snap = reg.Snapshot()
	if got := snap.Counters[quality.ObservationsMetric]; got != 2 {
		t.Fatalf("%s = %d, want 2", quality.ObservationsMetric, got)
	}
	if got := snap.Counters[quality.DriftObservedMetric]; got != 2 {
		t.Fatalf("%s = %d, want 2", quality.DriftObservedMetric, got)
	}
}
