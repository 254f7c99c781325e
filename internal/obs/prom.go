package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): counters gain the conventional
// `_total` suffix, histograms expose cumulative `_bucket{le="..."}`
// series plus `_sum` and `_count`, and dots in registry names become
// underscores. Families are emitted in sorted name order (counters, then
// gauges, then histograms), so the output of a frozen snapshot is
// byte-stable — which is what the exposition golden test pins.
func WritePrometheus(w io.Writer, s Snapshot) error { return writeExposition(w, s, false) }

// writeExposition renders s in the 0.0.4 text format or, with om set, in
// OpenMetrics 1.0. The two walk the same families line for line: only
// the counter family's `# TYPE` name (OpenMetrics drops `_total`) and
// the exemplar clauses differ.
func writeExposition(w io.Writer, s Snapshot, om bool) error {
	var b strings.Builder
	counterFamily := "_total"
	if om {
		counterFamily = ""
	}
	for _, n := range sortedNames(s.Counters) {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s%s counter\n%s_total %d\n", pn, counterFamily, pn, s.Counters[n])
	}
	for _, n := range sortedNames(s.Gauges) {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[n]))
	}
	for _, n := range sortedNames(s.Histograms) {
		h := s.Histograms[n]
		pn := promName(n)
		// Index exemplars by bucket for the cumulative walk below.
		var ex map[int]Exemplar
		if om && len(h.Exemplars) > 0 {
			ex = make(map[int]Exemplar, len(h.Exemplars))
			for _, e := range h.Exemplars {
				ex[e.Bucket] = e
			}
		}
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		// The registry stores per-bucket counts; Prometheus buckets are
		// cumulative, ending in the catch-all +Inf bucket.
		var cum int64
		for i, bound := range h.Buckets {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%s} %d", pn, QuoteLabel(promFloat(bound)), cum)
			writeExemplar(&b, ex, i)
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d", pn, h.Count)
		writeExemplar(&b, ex, len(h.Buckets))
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// sortedNames returns m's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// promName maps a registry metric name onto the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* by replacing every other rune with '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		b.WriteRune(r)
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// QuoteLabel renders a label value as a double-quoted Prometheus string.
// The text exposition format escapes exactly three characters inside
// label values — backslash, double-quote and line feed — which is NOT
// the Go %q escaping (Go would also escape control characters and
// non-ASCII runes, producing values a Prometheus parser reads back
// differently than they were recorded).
func QuoteLabel(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
