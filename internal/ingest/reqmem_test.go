package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// endpointBatch returns a JSON body of n windows from eight endpoints,
// each sending a run of n/8 windows.
func endpointBatch(t *testing.T, n int) []byte {
	t.Helper()
	ws := make([]Window, n)
	for i := range ws {
		label := i % 2
		ws[i] = Window{Endpoint: fmt.Sprintf("ep-%d", i*8/n), Label: &label,
			Values: []float64{float64(label), 0.2, 0.3, float64(i)}}
	}
	return marshal(t, Batch{Windows: ws})
}

// TestHTTPIngestAllocsFlat: on a warm service, a JSON POST through
// Handler() allocates as often for 512 windows as for 64. The body
// buffer, the window and label slabs and the value slab come back from
// their pools once the drain is done with them, so what a request still
// allocates is its own: the request and response, and one string per
// run of windows from one endpoint, which this traffic holds at eight
// runs a batch.
func TestHTTPIngestAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its puts under the race detector")
	}
	s, err := New(testConfig(t, func(c *Config) { c.QueueCap = 1024 }))
	if err != nil {
		t.Fatal(err)
	}
	// Workers stay unstarted: the drain is driven directly, between
	// requests, so the queue is empty when each request arrives.
	h := s.Handler()
	sc := newShardScratch(s, drainChunk)
	post := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		for !s.Drained() {
			s.drainTenant(s.lookupTenant("acme"), sc)
		}
	}
	small, large := endpointBatch(t, 64), endpointBatch(t, 512)
	for i := 0; i < 3; i++ {
		post(large)
		post(small)
	}
	allocs, heap := map[int]float64{}, map[int]uint64{}
	for n, body := range map[int][]byte{64: small, 512: large} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[n] = testing.AllocsPerRun(200, func() { post(body) })
		runtime.ReadMemStats(&after)
		heap[n] = (after.TotalAlloc - before.TotalAlloc) / 201 // AllocsPerRun adds a warm-up run
	}
	t.Logf("per request: %.0f allocations, %d B at 64 windows; %.0f, %d B at 512",
		allocs[64], heap[64], allocs[512], heap[512])
	if allocs[512] != allocs[64] {
		t.Fatalf("a 512-window request allocates %.0f times, a 64-window one %.0f", allocs[512], allocs[64])
	}
	// Bytes are noisier than counts: a goroutine that moves to another P
	// between a Put and the next Get misses the pooled item and allocates
	// it again. Unpooled, each window beyond the 64th costs its slab
	// slots, about 170 B; the bound allows a tenth of that.
	if extra := int64(heap[512]) - int64(heap[64]); extra > (512-64)*16 {
		t.Fatalf("a 512-window request allocates %d B, a 64-window one %d B", heap[512], heap[64])
	}
}

// slabBatch is one random batch for TestRecycledSlabsMatchInProcess:
// labeled, mislabeled and unlabeled windows of both classes, in runs
// from a few endpoints, and sometimes one window of the wrong length.
func slabBatch(rng *rand.Rand, n int, overflow string) Batch {
	b := Batch{Overflow: overflow, Windows: make([]Window, n)}
	for i := range b.Windows {
		class := rng.Intn(2)
		w := Window{Endpoint: fmt.Sprintf("ep%d", (i/(1+rng.Intn(8)))%5),
			Values: []float64{0.1 + 0.8*float64(class) + 0.3*rng.NormFloat64(),
				0.2 + 0.2*rng.NormFloat64(), 0.3 + 0.2*rng.NormFloat64(), 0.4 + 0.2*rng.NormFloat64()}}
		if rng.Intn(5) > 0 {
			label := class
			if rng.Intn(8) == 0 {
				label = 1 - class
			}
			w.Label = &label
		}
		b.Windows[i] = w
	}
	if rng.Intn(25) == 0 {
		b.Windows[rng.Intn(n)].Values = []float64{1, 2, 3}
	}
	return b
}

// TestRecycledSlabsMatchInProcess sends random JSON batches over HTTP
// to a service whose value slabs are overwritten with NaN as they go
// back to the pool, and the same windows through in-process Enqueue,
// which recycles nothing, to a twin: two shards, reject and drop-oldest
// policies, every request traced. A window read after its slab was
// released reads NaN, so every verdict count and each tenant's quality
// and drift JSON must equal the twin's.
//
// The backlog phase runs before the workers start, so its 429s and its
// evictions are the same on both services. Once the workers run, each
// burst fits the queues, so nothing is rejected or evicted whenever the
// drain runs, and the drain releases chunks while requests decode.
func TestRecycledSlabsMatchInProcess(t *testing.T) {
	arm := mlpDetector(t)
	newSvc := func() *Service {
		s, err := New(testConfig(t, func(c *Config) {
			arm(c)
			c.Shards = 2
			c.QueueCap = 600
			c.Tracer = obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
		}))
		if err != nil {
			t.Fatal(err)
		}
		s.rotateEvery = 256 // rotations inside the stream
		return s
	}
	svc, twin := newSvc(), newSvc()
	svc.poisonSlabs = true
	h := svc.Handler()
	tenants := []string{"t-a", "t-b", "t-c"}
	overflows := []string{"", OverflowReject, OverflowDropOldest}

	// send posts b to svc and enqueues it on twin; the outcomes must
	// agree, and so must the receipts' queue depths while no drain runs.
	// It reports problems with t.Error, so any goroutine may call it.
	send := func(tenant string, b Batch, draining bool) {
		body, err := json.Marshal(b)
		if err != nil {
			t.Error(err)
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body))
		req.Header.Set(TenantHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		want, werr := twin.Enqueue(tenant, b.Overflow, b.Windows)
		var full *QueueFullError
		switch {
		case werr == nil && rec.Code == http.StatusAccepted:
			var got Accepted
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Error(err)
			}
			if got.TraceID == "" {
				t.Errorf("tenant %s: untraced receipt %s", tenant, rec.Body.String())
			}
			got.TraceID = ""
			if draining {
				got.Queued, want.Queued = 0, 0
			}
			if got != want {
				t.Errorf("tenant %s: receipt %+v, in-process %+v", tenant, got, want)
			}
		case errors.As(werr, &full) && rec.Code == http.StatusTooManyRequests:
		case werr != nil && rec.Code == http.StatusBadRequest && !errors.As(werr, &full):
		default:
			t.Errorf("tenant %s: status %d %s, in-process %v", tenant, rec.Code, rec.Body.String(), werr)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		send(tenants[rng.Intn(len(tenants))], slabBatch(rng, 1+rng.Intn(400), overflows[rng.Intn(3)]), false)
	}
	if t.Failed() {
		t.FailNow()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	twin.Start(ctx)
	for burst := 0; burst < 12; burst++ {
		waitDrained(t, svc)
		waitDrained(t, twin)
		var wg sync.WaitGroup
		for ti, tenant := range tenants {
			// Each tenant's batches come from its own goroutine, in an
			// order its seed fixes, and add up to at most QueueCap.
			var batches []Batch
			rng := rand.New(rand.NewSource(int64(100*burst + ti)))
			for room := 600; ; {
				n := 1 + rng.Intn(200)
				if n > room {
					break
				}
				room -= n
				batches = append(batches, slabBatch(rng, n, overflows[rng.Intn(3)]))
			}
			wg.Add(1)
			go func(tenant string, batches []Batch) {
				defer wg.Done()
				for _, b := range batches {
					send(tenant, b, true)
				}
			}(tenant, batches)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	waitDrained(t, svc)
	waitDrained(t, twin)

	got, want := svc.Stats(), twin.Stats()
	if got.WindowsIngested != want.WindowsIngested || got.WindowsProcessed != want.WindowsProcessed ||
		got.WindowsDropped != want.WindowsDropped || got.BatchesRejected != want.BatchesRejected ||
		got.MalwareWindows != want.MalwareWindows || got.Alarms != want.Alarms {
		t.Fatalf("stats %+v, in-process %+v", got, want)
	}
	if got.WindowsDropped == 0 || got.BatchesRejected == 0 || got.MalwareWindows == 0 {
		t.Fatalf("the stream evicted %d windows, rejected %d batches and flagged %d windows; want all three",
			got.WindowsDropped, got.BatchesRejected, got.MalwareWindows)
	}
	for _, id := range tenants {
		gq, _ := svc.TenantQuality(id)
		wq, _ := twin.TenantQuality(id)
		gd, _, _ := svc.TenantDrift(id)
		wd, _, _ := twin.TenantDrift(id)
		for what, pair := range map[string][2]any{"quality": {gq, wq}, "drift": {gd, wd}} {
			g, gerr := json.Marshal(pair[0])
			w, werr := json.Marshal(pair[1])
			if gerr != nil || werr != nil || !bytes.Equal(g, w) {
				t.Fatalf("tenant %s %s:\n got %s (%v)\nwant %s (%v)", id, what, g, gerr, w, werr)
			}
		}
	}
}
