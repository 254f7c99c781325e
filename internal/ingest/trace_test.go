package ingest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedConfig builds a service config that records every request.
func tracedConfig(t *testing.T, shards int) (Config, *obs.ReqTracer) {
	t.Helper()
	rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
	cfg := testConfig(t, func(c *Config) {
		c.Shards = shards
		c.Tracer = rt
	})
	return cfg, rt
}

// waitTrace polls until the trace with the given id commits into the
// ring — the drain worker settles pending verdicts asynchronously.
func waitTrace(t *testing.T, rt *obs.ReqTracer, id string) obs.ReqTraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, ok := rt.Get(id); ok {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never committed; stats=%+v", id, rt.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestTraceWaterfall drives one traced batch through the full
// HTTP accept → enqueue → dequeue → infer → quality pipeline and checks
// the resulting span waterfall: the caller's traceparent joins, every
// stage appears, and the staged durations bound the batch's
// ingest-to-verdict latency.
func TestIngestTraceWaterfall(t *testing.T) {
	cfg, rt := tracedConfig(t, 2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	h := s.Handler()

	caller := obs.NewTraceContext()
	b := Batch{}
	for i := 0; i < 9; i++ {
		b.Windows = append(b.Windows, win("ep0", i%2))
	}
	body, _ := json.Marshal(b)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "acme")
	req.Header.Set(TraceparentHeader, caller.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}

	// The receipt and the response header both carry the joined trace.
	var res Accepted
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.TraceID != caller.TraceID() {
		t.Fatalf("receipt trace id %q != caller %q", res.TraceID, caller.TraceID())
	}
	echo, ok := obs.ParseTraceparent(rec.Header().Get(TraceparentHeader))
	if !ok || echo.TraceID() != caller.TraceID() || echo.Span == caller.Span {
		t.Fatalf("response traceparent %q does not continue the caller's trace",
			rec.Header().Get(TraceparentHeader))
	}

	waitDrained(t, s)
	snap := waitTrace(t, rt, caller.TraceID())
	if snap.Tenant != "acme" || snap.Name != "ingest" || snap.Error != "" {
		t.Fatalf("trace = %+v", snap)
	}
	stages := map[string]obs.SpanRecord{}
	for _, sp := range snap.Spans {
		stages[sp.Name] = sp
	}
	for _, name := range []string{"ingest.accept", "ingest.enqueue",
		"ingest.dequeue", "ingest.infer", "ingest.quality"} {
		if _, ok := stages[name]; !ok {
			t.Fatalf("span %s missing from waterfall: %+v", name, snap.Spans)
		}
	}
	// The accept span covers handler entry through enqueue, and the
	// dequeue span starts at enqueue time, so the four stages together
	// cover the batch's whole ingest-to-verdict latency: their sum must
	// bound the root duration (small slack for the handler-return →
	// drain-claim scheduling gap).
	var stagedUS int64
	for _, name := range []string{"ingest.accept", "ingest.dequeue", "ingest.infer", "ingest.quality"} {
		stagedUS += stages[name].DurUS
	}
	if rootUS := int64(snap.DurMS * 1000); stagedUS+1000 < rootUS {
		t.Fatalf("staged spans cover %dus of a %dus trace — stages missing time", stagedUS, rootUS)
	}
	if got := stages["ingest.enqueue"].Attrs; len(got) == 0 {
		t.Fatalf("enqueue span lost its attributes: %+v", stages["ingest.enqueue"])
	}
}

// TestIngestTraceErrorPaths pins the two trace-settlement hazards: a
// rejected batch commits immediately with the error rule, and windows
// evicted by drop-oldest settle their pending counts so the trace still
// commits (marked errored) instead of leaking forever.
func TestIngestTraceErrorPaths(t *testing.T) {
	rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
	s, err := New(testConfig(t, func(c *Config) {
		c.QueueCap = 8
		c.Tracer = rt
	}))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler() // workers intentionally not started: the queue stays full

	fill := Batch{}
	for i := 0; i < 8; i++ {
		fill.Windows = append(fill.Windows, win("ep0", 0))
	}
	tcFill := obs.NewTraceContext()
	reqFill := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", jsonBody(t, fill))
	reqFill.Header.Set("Content-Type", "application/json")
	reqFill.Header.Set(TenantHeader, "acme")
	reqFill.Header.Set(TraceparentHeader, tcFill.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, reqFill)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("fill: %d", rec.Code)
	}

	// Rejected batch: 429, trace commits at once with the error reason.
	tcRej := obs.NewTraceContext()
	reqRej := httptest.NewRequest(http.MethodPost, "/api/v1/ingest",
		jsonBody(t, Batch{Windows: []Window{win("ep0", 0)}}))
	reqRej.Header.Set("Content-Type", "application/json")
	reqRej.Header.Set(TenantHeader, "acme")
	reqRej.Header.Set(TraceparentHeader, tcRej.Traceparent())
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, reqRej)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", rec.Code)
	}
	snap, ok := rt.Get(tcRej.TraceID())
	if !ok || snap.Error == "" || snap.KeepReason != "error" {
		t.Fatalf("rejected-batch trace = %+v, ok=%v", snap, ok)
	}

	// Drop-oldest: the fill batch's windows are evicted; its trace must
	// settle (errored) rather than wait for verdicts that never come.
	over := Batch{Overflow: OverflowDropOldest}
	for i := 0; i < 8; i++ {
		over.Windows = append(over.Windows, win("ep1", 0))
	}
	reqOver := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", jsonBody(t, over))
	reqOver.Header.Set("Content-Type", "application/json")
	reqOver.Header.Set(TenantHeader, "acme")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, reqOver)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("drop-oldest: %d %s", rec.Code, rec.Body.String())
	}
	evicted, ok := rt.Get(tcFill.TraceID())
	if !ok {
		t.Fatal("evicted batch's trace never committed")
	}
	if !strings.Contains(evicted.Error, "evicted") || evicted.KeepReason != "error" {
		t.Fatalf("evicted trace = %+v", evicted)
	}
}

func jsonBody(t *testing.T, b Batch) *strings.Reader {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(raw))
}

// TestQualityIdenticalTracingOnOff is the determinism guard for the
// tracing layer: per-tenant quality JSON must be byte-identical with
// tracing off and with every request traced, at 1 shard and at 8.
func TestQualityIdenticalTracingOnOff(t *testing.T) {
	for _, shards := range []int{1, 8} {
		off := streamBatches(t, shards, nil)
		on := streamBatches(t, shards, obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1}))
		for id, want := range off {
			if got := on[id]; got != want {
				t.Fatalf("shards=%d tenant %s quality differs with tracing on:\n--- off\n%s\n--- on\n%s",
					shards, id, want, got)
			}
		}
	}
}

// TestUnsampledIngestZeroAlloc pins the PR 4 guarantee under the
// tracing refactor: with no trace recorded (nil tracer, and a tracer
// that declined the request), the steady-state enqueue→drain hot path
// allocates nothing per window — also with a compiled MLP and drift
// armed, where the drain runs Classify and ObserveChunk.
func TestUnsampledIngestZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *obs.ReqTracer
		arm    func(*Config)
	}{
		{"nil-tracer", nil, nil},
		{"tracer-declines", obs.NewReqTracer(obs.ReqTracerConfig{}), nil}, // ratio 0
		{"compiled-mlp-drift", nil, mlpDetector(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(testConfig(t, func(c *Config) {
				c.QueueCap = 1024
				c.Tracer = tc.tracer
				if tc.arm != nil {
					tc.arm(c)
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			// Workers stay unstarted: the drain is driven directly so the
			// measurement is the hot path alone, free of scheduler noise.
			batch := []Window{win("ep0", 0)}
			if _, err := s.Enqueue("acme", "", batch); err != nil {
				t.Fatal(err)
			}
			ten := s.lookupTenant("acme")
			sc := newShardScratch(s, drainChunk)
			if n := s.drainTenant(ten, sc); n != 1 {
				t.Fatalf("warmup drain = %d", n)
			}
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := s.Enqueue("acme", "", batch); err != nil {
					t.Fatal(err)
				}
				if n := s.drainTenant(ten, sc); n != 1 {
					t.Fatal("drain did not claim the window")
				}
			})
			if allocs != 0 {
				t.Fatalf("unsampled ingest hot path allocates %.1f bytes-objects/window, want 0", allocs)
			}
		})
	}
}
