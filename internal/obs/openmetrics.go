package obs

import (
	"fmt"
	"io"
	"strings"
)

// OpenMetricsContentType is the content type for the OpenMetrics 1.0 text
// exposition format, negotiated by scrapers via the Accept header.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders a metrics snapshot in the OpenMetrics 1.0 text
// format. The family layout mirrors WritePrometheus (sorted counters,
// gauges, then histograms, byte-stable for a frozen snapshot); what
// OpenMetrics adds is exemplars — bucket lines whose histogram recorded a
// trace-linked observation carry `# {trace_id="..."} value timestamp`, so
// a scraper can jump from a latency bucket to the exact trace behind it.
//
// The caller owns the terminating `# EOF` line: the telemetry server
// appends its synthetic build-info/uptime families first, then
// terminates the exposition.
func WriteOpenMetrics(w io.Writer, s Snapshot) error { return writeExposition(w, s, true) }

// writeExemplar appends the OpenMetrics exemplar clause for bucket i when
// one was recorded: ` # {trace_id="..."} value timestamp-seconds`.
func writeExemplar(b *strings.Builder, ex map[int]Exemplar, i int) {
	e, ok := ex[i]
	if !ok || e.TraceID == "" {
		return
	}
	fmt.Fprintf(b, " # {trace_id=%s} %s %s", QuoteLabel(e.TraceID),
		promFloat(e.Value), promFloat(float64(e.TimeUnixMS)/1000))
}
