package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/tsdb"
)

// cmdTop implements `hpcmal top`: a terminal dashboard over any serve
// daemon's historical query API. It is a pure HTTP client — point -addr
// at the address serve printed (or a remote daemon) and it renders the
// same headline panels as /dashboard, as text.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "serve daemon telemetry `addr` (host:port)")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	window := fs.Duration("window", 5*time.Minute, "history window behind each sparkline")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &topClient{base: "http://" + *addr,
		hc: &http.Client{Timeout: 5 * time.Second}}
	if *once {
		frame, err := c.frame(*window)
		if err != nil {
			return err
		}
		fmt.Print(frame)
		return nil
	}
	for {
		frame, err := c.frame(*window)
		if err != nil {
			return err
		}
		// Home the cursor and clear below rather than wiping the whole
		// screen — refreshes don't flicker.
		fmt.Print("\x1b[H\x1b[J" + frame)
		time.Sleep(*interval)
	}
}

// topPanels are the headline series, mirroring the /dashboard page.
var topPanels = []struct {
	label  string
	metric string
	agg    string
}{
	{"windows/s", "trace.windows_simulated", "rate"},
	{"alarms/s", "ingest.alarms", "rate"},
	{"F1", "quality.f1", "avg"},
	{"drifting", "drift.features_drifting", "max"},
	{"bus drops/s", "obs.events_dropped", "rate"},
	{"scrape p99 ms", "tsdb.scrape_ms:p99", "avg"},
	// Runtime self-observability rows, fed by the runtime/metrics
	// collector riding the tsdb scrape.
	{"goroutines", "runtime.goroutines", "avg"},
	{"GC p99 ms", "runtime.gc_pause_p99_ms", "max"},
	{"heap bytes", "runtime.heap_objects_bytes", "avg"},
}

// sparkRunes render a sparkline, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

type topClient struct {
	base string
	hc   *http.Client
	// prevTenants holds the previous frame's per-tenant counters so the
	// tenant panel renders rates from deltas; first frame (and -once)
	// shows "-" because there is no earlier sample to diff against.
	prevTenants map[string]tenantPrev
}

// tenantPrev is one tenant's counters as of the previous frame.
type tenantPrev struct {
	processed int64
	rejected  int64
	at        time.Time
}

// getJSON decodes one endpoint into out; non-200s become errors carrying
// the response body (the daemon's own explanation, e.g. "unknown
// metric").
func (c *topClient) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readiness reports the daemon's /readyz line ("ready ..." or
// "not ready: ...").
func (c *topClient) readiness() string {
	resp, err := c.hc.Get(c.base + "/readyz")
	if err != nil {
		return "unreachable: " + err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return strings.TrimSpace(string(body))
}

// spark renders vs as a fixed-width sparkline, scaled to its own range.
func spark(vs []float64, width int) string {
	if len(vs) == 0 {
		return strings.Repeat(" ", width)
	}
	// Resample onto width columns (nearest point per column).
	cols := make([]float64, width)
	for i := range cols {
		cols[i] = vs[i*len(vs)/width]
	}
	lo, hi := cols[0], cols[0]
	for _, v := range cols {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range cols {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// frame renders one full dashboard frame: readiness header, one
// sparkline row per headline panel, and the tail of the alert timeline.
func (c *topClient) frame(window time.Duration) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "hpcmal top — %s — %s\n", c.base, c.readiness())

	var cat tsdb.Catalog
	if err := c.getJSON("/api/v1/series", &cat); err != nil {
		// The catalog is the one required endpoint: without a store there
		// is no history to render, so say that instead of blank panels.
		return "", fmt.Errorf("top: %w (is this a serve daemon?)", err)
	}
	span := time.Duration(cat.LastMS-cat.FirstMS) * time.Millisecond
	fmt.Fprintf(&b, "%d series, %s of history, scraping every %s\n\n",
		len(cat.Series), span.Round(time.Second), time.Duration(cat.IntervalMS)*time.Millisecond)

	fromArg := fmt.Sprintf("now-%ds", int(window.Seconds()))
	for _, p := range topPanels {
		var res tsdb.QueryResult
		path := "/api/v1/query_range?metric=" + p.metric +
			"&from=" + fromArg + "&to=now&agg=" + p.agg
		if err := c.getJSON(path, &res); err != nil || len(res.Points) == 0 {
			// A daemon that has not emitted this metric yet (404) still
			// gets a row — panels light up as the replay produces data.
			fmt.Fprintf(&b, "  %-14s %10s  %s\n", p.label, "-", strings.Repeat("·", 40))
			continue
		}
		vs := make([]float64, len(res.Points))
		for i, pt := range res.Points {
			vs[i] = pt.V
		}
		fmt.Fprintf(&b, "  %-14s %10.2f  %s  (%s/%s)\n",
			p.label, vs[len(vs)-1], spark(vs, 40), res.Tier, p.agg)
	}

	b.WriteString(c.tenantPanel())

	var hist tsdb.EventHistory
	if err := c.getJSON("/api/v1/alerts/history", &hist); err == nil {
		fmt.Fprintf(&b, "\nrecent alerts/drift/alarms (%d total):\n", hist.Total)
		events := hist.Events
		if len(events) > 8 {
			events = events[len(events)-8:]
		}
		if len(events) == 0 {
			fmt.Fprint(&b, "  (none)\n")
		}
		for _, e := range events {
			ts := time.UnixMilli(e.TimeUnixMS).Format("15:04:05")
			detail := e.Msg
			if detail == "" && e.Sample != "" {
				detail = e.Sample
			}
			fmt.Fprintf(&b, "  %s  %-15s %s\n", ts, e.Type, detail)
		}
	}
	return b.String(), nil
}

// tenantPanel renders the per-tenant ingest table from /api/v1/tenants:
// windows/s and 429/s as deltas against the previous frame, queue depth
// against capacity, and lifetime alarms. Daemons without the fleet
// ingest surface (or with no tenants yet) get no panel rather than an
// error — top still works against them.
func (c *topClient) tenantPanel() string {
	var tl struct {
		Tenants []ingest.TenantSummary `json:"tenants"`
	}
	if err := c.getJSON("/api/v1/tenants", &tl); err != nil || len(tl.Tenants) == 0 {
		return ""
	}
	now := time.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "\ningest tenants (%d):\n", len(tl.Tenants))
	fmt.Fprintf(&b, "  %-16s %10s %13s %8s %8s\n",
		"tenant", "windows/s", "queue", "429/s", "alarms")
	if c.prevTenants == nil {
		c.prevTenants = make(map[string]tenantPrev, len(tl.Tenants))
	}
	for _, t := range tl.Tenants {
		rate, rej := "-", "-"
		if p, ok := c.prevTenants[t.ID]; ok {
			if dt := now.Sub(p.at).Seconds(); dt > 0 {
				rate = fmt.Sprintf("%.0f", float64(t.WindowsProcessed-p.processed)/dt)
				rej = fmt.Sprintf("%.1f", float64(t.BatchesRejected-p.rejected)/dt)
			}
		}
		c.prevTenants[t.ID] = tenantPrev{processed: t.WindowsProcessed,
			rejected: t.BatchesRejected, at: now}
		fmt.Fprintf(&b, "  %-16s %10s %7d/%-5d %8s %8d\n",
			t.ID, rate, t.Queued, t.QueueCap, rej, t.Alarms)
	}
	return b.String()
}
