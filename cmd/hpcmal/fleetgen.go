package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cmdFleetgen is the fleet load generator: it simulates
// tenants × endpoints hosts, each collecting HPC windows from the
// workload families and POSTing them as batches to a serve daemon's
// /api/v1/ingest, then reports sustained windows/sec and request/
// verdict latency percentiles — the load-test harness behind the
// ingest benchmarks.
func cmdFleetgen(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	fs := flag.NewFlagSet("fleetgen", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "serve daemon address (host:port)")
	tenants := fs.Int("tenants", 4, "simulated tenants")
	endpoints := fs.Int("endpoints", 8, "simulated endpoints per tenant")
	batch := fs.Int("batch", 64, "windows per ingest request")
	rounds := fs.Int("rounds", 10, "batches each endpoint sends")
	windows := fs.Int("windows", 64, "HPC windows collected per endpoint workload run")
	seed := fs.Uint64("seed", 1, "random seed for the simulated workloads")
	ndjson := fs.Bool("ndjson", false, "send NDJSON streams instead of JSON batches")
	traceparent := fs.Bool("traceparent", true, "stamp a sampled W3C traceparent on every request so client and server latency join on trace id")
	dropOldest := fs.Bool("drop-oldest", false, "opt tenants into drop-oldest overflow instead of 429 backpressure")
	readyTimeout := fs.Duration("ready-timeout", 60*time.Second, "how long to wait for the daemon's /readyz")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "how long to wait for the server to classify everything sent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenants < 1 || *endpoints < 1 || *batch < 1 || *rounds < 1 {
		return fmt.Errorf("fleetgen: -tenants, -endpoints, -batch and -rounds must be >= 1")
	}
	if *ndjson && *dropOldest {
		return fmt.Errorf("fleetgen: -drop-oldest needs JSON batches: the overflow policy travels in the batch envelope, and NDJSON bodies carry none")
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}

	// The fleet's traffic: every endpoint runs one workload family and
	// replays its collected windows. Pre-generate everything before
	// timing starts so measured throughput is pure ingest+detect.
	cfg := trace.DefaultConfig()
	cfg.WindowsPerSample = *windows
	classes := workload.AllClasses()
	type endpointLoad struct {
		tenant   string
		endpoint string
		windows  []ingest.Window
	}
	var loads []endpointLoad
	for t := 0; t < *tenants; t++ {
		tenantID := fmt.Sprintf("tenant-%02d", t)
		for e := 0; e < *endpoints; e++ {
			class := classes[(t*(*endpoints)+e)%len(classes)]
			tr, err := trace.CollectSample(cfg, class,
				*seed^(uint64(t)*1000003+uint64(e)*1009+1)*0x9e3779b97f4a7c15)
			if err != nil {
				return fmt.Errorf("fleetgen: collecting %s windows: %w", class, err)
			}
			label := 0
			if class.IsMalware() {
				label = 1
			}
			ws := make([]ingest.Window, len(tr.Records))
			epID := fmt.Sprintf("%s-ep-%02d", class, e)
			for i := range tr.Records {
				lbl := label
				ws[i] = ingest.Window{
					Endpoint: epID,
					Label:    &lbl,
					Values:   tr.Records[i].Values(),
				}
			}
			loads = append(loads, endpointLoad{tenant: tenantID, endpoint: epID, windows: ws})
		}
	}

	if err := waitReady(ctx, client, base, *readyTimeout); err != nil {
		return err
	}
	// The daemon may have classified other traffic before this run: the
	// server-side numbers below are what changed since this reading.
	before, err := getStats(ctx, client, base)
	if err != nil {
		return err
	}

	overflow := ""
	if *dropOldest {
		overflow = ingest.OverflowDropOldest
	}
	fmt.Printf("fleetgen: %d tenants × %d endpoints → %s, %d rounds × %d windows (%s)\n",
		*tenants, *endpoints, base, *rounds, *batch,
		map[bool]string{true: "ndjson", false: "json"}[*ndjson])

	var (
		acceptedTotal atomic.Int64
		droppedTotal  atomic.Int64
		retriesTotal  atomic.Int64
		stampedTotal  atomic.Int64
		joinedTotal   atomic.Int64 // receipts echoing our stamped trace id
		mu            sync.Mutex
		latencies     []float64 // request round-trip, milliseconds
		firstErr      error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for _, ld := range loads {
		wg.Add(1)
		go func(ld endpointLoad) {
			defer wg.Done()
			var local []float64
			next := 0
			for r := 0; r < *rounds && ctx.Err() == nil; r++ {
				ws := make([]ingest.Window, *batch)
				for i := range ws {
					ws[i] = ld.windows[next%len(ld.windows)]
					next++
				}
				res, retries, rtt, joined, err := postWindows(ctx, client, base, ld.tenant, overflow, ws, *ndjson, *traceparent)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("fleetgen: %s/%s: %w", ld.tenant, ld.endpoint, err)
					}
					mu.Unlock()
					return
				}
				acceptedTotal.Add(int64(res.Accepted))
				droppedTotal.Add(int64(res.Dropped))
				retriesTotal.Add(int64(retries))
				if *traceparent {
					stampedTotal.Add(1)
					if joined {
						joinedTotal.Add(1)
					}
				}
				local = append(local, rtt)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(ld)
	}
	wg.Wait()
	sendWall := time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Wait until the server has classified everything it accepted, so
	// the reported server-side rate is ingest-to-verdict, not just
	// ingest-to-queue.
	stats, err := waitDrain(ctx, client, base, *drainTimeout)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	clientRate := float64(acceptedTotal.Load()) / sendWall.Seconds()
	fmt.Printf("client: %d windows accepted (%d dropped) in %.2fs — %.0f windows/s, %d retries after 429\n",
		acceptedTotal.Load(), droppedTotal.Load(), sendWall.Seconds(), clientRate, retriesTotal.Load())
	fmt.Printf("client: request rtt p50 %.2f ms, p99 %.2f ms over %d requests\n",
		percentile(latencies, 0.50), percentile(latencies, 0.99), len(latencies))
	if *traceparent {
		fmt.Printf("client: %d traceparents stamped, %d joined by the server (inspect via /api/v1/traces)\n",
			stampedTotal.Load(), joinedTotal.Load())
	}
	processed := stats.WindowsProcessed - before.WindowsProcessed
	fmt.Printf("server: %d windows classified from %d tenants in %.2fs — %.0f windows/s sustained, verdict latency p50 %.2f ms p99 %.2f ms\n",
		processed, stats.Tenants, wall.Seconds(), float64(processed)/wall.Seconds(),
		stats.VerdictLatencyP50MS, stats.VerdictLatencyP99MS)
	return nil
}

// postWindows sends one batch (retrying on 429 per its Retry-After) and
// returns the receipt, the retry count, the final round-trip in ms, and
// whether the server's receipt joined the stamped trace id.
func postWindows(ctx context.Context, client *http.Client, base, tenant, overflow string,
	ws []ingest.Window, ndjson, stamp bool) (ingest.Accepted, int, float64, bool, error) {
	var body bytes.Buffer
	var contentType string
	if ndjson {
		contentType = "application/x-ndjson"
		enc := json.NewEncoder(&body)
		for i := range ws {
			if err := enc.Encode(&ws[i]); err != nil {
				return ingest.Accepted{}, 0, 0, false, err
			}
		}
	} else {
		contentType = "application/json"
		if err := json.NewEncoder(&body).Encode(ingest.Batch{Overflow: overflow, Windows: ws}); err != nil {
			return ingest.Accepted{}, 0, 0, false, err
		}
	}
	raw := body.Bytes()
	// One fresh sampled context per batch, held across 429 retries: the
	// retried request is the same logical trace.
	var tc obs.TraceContext
	if stamp {
		tc = obs.NewTraceContext()
	}
	for retries := 0; ; retries++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/api/v1/ingest", bytes.NewReader(raw))
		if err != nil {
			return ingest.Accepted{}, retries, 0, false, err
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(ingest.TenantHeader, tenant)
		if stamp {
			req.Header.Set(ingest.TraceparentHeader, tc.Traceparent())
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		rtt := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return ingest.Accepted{}, retries, rtt, false, err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return ingest.Accepted{}, retries, rtt, false, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var res ingest.Accepted
			if err := json.Unmarshal(payload, &res); err != nil {
				return ingest.Accepted{}, retries, rtt, false, err
			}
			return res, retries, rtt, stamp && res.TraceID == tc.TraceID(), nil
		case http.StatusTooManyRequests:
			// Explicit backpressure: honor Retry-After and resend.
			delay := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
			select {
			case <-ctx.Done():
				return ingest.Accepted{}, retries, rtt, false, ctx.Err()
			case <-time.After(delay):
			}
		default:
			return ingest.Accepted{}, retries, rtt, false,
				fmt.Errorf("ingest returned %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
		}
	}
}

// waitReady polls /readyz until the daemon reports ready.
func waitReady(ctx context.Context, client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleetgen: %s/readyz not ready after %s", base, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// getStats reads the daemon's fleet ingest stats.
func getStats(ctx context.Context, client *http.Client, base string) (ingest.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/ingest", nil)
	if err != nil {
		return ingest.Stats{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return ingest.Stats{}, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ingest.Stats{}, err
	}
	var stats ingest.Stats
	if err := json.Unmarshal(payload, &stats); err != nil {
		return ingest.Stats{}, fmt.Errorf("fleetgen: bad stats payload: %w (%s)", err, bytes.TrimSpace(payload))
	}
	return stats, nil
}

// waitDrain polls the ingest stats until the server's queues are empty.
func waitDrain(ctx context.Context, client *http.Client, base string, timeout time.Duration) (ingest.Stats, error) {
	deadline := time.Now().Add(timeout)
	for {
		stats, err := getStats(ctx, client, base)
		if err != nil {
			return stats, err
		}
		if stats.Queued == 0 {
			return stats, nil
		}
		if time.Now().After(deadline) {
			return stats, fmt.Errorf("fleetgen: server still has %d queued windows after %s", stats.Queued, timeout)
		}
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// percentile returns the q-quantile of values in ms (0 when empty).
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
