// determinism_test.go asserts the profiler's zero-interference contract:
// running the continuous sampler next to the ingest/detect pipeline must
// not change a single output byte. The profiler only observes (pprof
// snapshots, runtime gauges) — if its presence ever perturbed verdicts
// or quality accounting, "always-on in production" would be a lie.
package profile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/profile"
)

// thresholdClf is a deterministic stand-in detector: malware iff the
// first feature exceeds 0.5.
type thresholdClf struct{}

var _ ml.Classifier = thresholdClf{}

func (thresholdClf) Name() string                               { return "threshold" }
func (thresholdClf) Train(x [][]float64, y []int, nc int) error { return nil }
func (thresholdClf) Predict(f []float64) int {
	if f[0] > 0.5 {
		return 1
	}
	return 0
}

// windowsPerBatch makes each tenant's stream (8 batches) cross one
// 4096-window quality epoch boundary, so rotation runs beside the
// profiler too.
const windowsPerBatch = 520

// qualityStream drives a fixed batch stream through a fresh ingest
// service — optionally with a hot continuous profiler cycling every
// 20 ms beside it — and returns each tenant's quality JSON.
func qualityStream(t *testing.T, shards int, withProfiler bool) map[string]string {
	t.Helper()
	reg, bus := obs.NewRegistry(), obs.NewBus()
	svc, err := ingest.New(ingest.Config{
		Classifier: thresholdClf{},
		Events:     []string{"e0", "e1", "e2", "e3"},
		Shards:     shards,
		Registry:   reg,
		Bus:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	if withProfiler {
		p := profile.New(profile.Config{
			Interval: 20 * time.Millisecond,
			Duty:     5 * time.Millisecond,
			Registry: reg,
			Bus:      bus,
		})
		stop := p.Start()
		defer func() {
			stop()
			if caps := p.Stats().Captures; caps == 0 {
				t.Fatal("profiler took no captures; the on/off comparison proved nothing")
			}
		}()
	}

	h := svc.Handler()
	tenants := []string{"t-a", "t-b", "t-c"}
	for round := 0; round < 8; round++ {
		for ti, id := range tenants {
			var b ingest.Batch
			for k := 0; k < windowsPerBatch; k++ {
				lbl := (round + ti + k) % 2
				v := 0.1
				if lbl == 1 {
					v = 0.9
				}
				if (round+k)%5 == 0 { // mislabel some: non-trivial confusion matrix
					v = 1 - v
				}
				b.Windows = append(b.Windows, ingest.Window{
					Endpoint: fmt.Sprintf("ep%d", k%3),
					Label:    &lbl,
					Values:   []float64{v, 0.2, 0.3, 0.4},
				})
			}
			body, _ := json.Marshal(b)
			req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body))
			req.Header.Set(ingest.TenantHeader, id)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("round %d tenant %s: %d %s", round, id, rec.Code, rec.Body.String())
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !svc.Drained() {
		if time.Now().After(deadline) {
			t.Fatal("ingest did not drain")
		}
		time.Sleep(time.Millisecond)
	}

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

// TestProfilerOffByteIdentical: per-tenant quality JSON is byte-identical
// with the profiler running hot vs absent, at 1 shard and at 8.
func TestProfilerOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full ingest streams")
	}
	for _, shards := range []int{1, 8} {
		off := qualityStream(t, shards, false)
		on := qualityStream(t, shards, true)
		for id, want := range off {
			if got := on[id]; got != want {
				t.Fatalf("shards=%d tenant %s: quality differs with profiler on:\n--- off\n%s\n--- on\n%s",
					shards, id, want, got)
			}
		}
	}
}
