package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name  string
	le    string // the le label of a histogram bucket, "" otherwise
	value float64
}

// parseProm reads the samples of a text exposition (0.0.4), skipping
// comments. Only the le label is kept: the daemon's fleet-level families
// carry no other labels.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value", n+1)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			labels := s.name[i:]
			s.name = s.name[:i]
			if _, rest, ok := strings.Cut(labels, `le="`); ok {
				s.le, _, _ = strings.Cut(rest, `"`)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// promValue returns the value of the unlabelled sample name.
func promValue(samples []promSample, name string) (float64, bool) {
	for _, s := range samples {
		if s.name == name && s.le == "" {
			return s.value, true
		}
	}
	return 0, false
}

// bucket is one histogram bucket: the count of observations in (prev
// bound, le].
type bucket struct {
	le    float64
	count float64
}

// histogram returns family's buckets as per-bucket (not cumulative)
// counts in bound order, the last one bounded by +Inf.
func histogram(samples []promSample, family string) ([]bucket, error) {
	var cum []bucket
	for _, s := range samples {
		if s.name != family+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.le, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bucket bound %q: %w", family, s.le, err)
		}
		cum = append(cum, bucket{le: le, count: s.value})
	}
	if len(cum) == 0 {
		return nil, fmt.Errorf("%s: no buckets", family)
	}
	sort.Slice(cum, func(i, j int) bool { return cum[i].le < cum[j].le })
	out := make([]bucket, len(cum))
	prev := 0.0
	for i, b := range cum {
		out[i] = bucket{le: b.le, count: b.count - prev}
		prev = b.count
	}
	return out, nil
}

// histogramDelta is the observations a histogram gained between two
// scrapes. The bounds must match; a bucket that shrank means the
// process restarted, which makes the delta meaningless.
func histogramDelta(before, after []bucket) ([]bucket, error) {
	if len(before) != len(after) {
		return nil, fmt.Errorf("histogram delta: %d buckets before, %d after", len(before), len(after))
	}
	out := make([]bucket, len(after))
	for i := range after {
		if before[i].le != after[i].le {
			return nil, fmt.Errorf("histogram delta: bound %g became %g", before[i].le, after[i].le)
		}
		d := after[i].count - before[i].count
		if d < 0 {
			return nil, fmt.Errorf("histogram delta: bucket le=%g went from %g to %g", after[i].le, before[i].count, after[i].count)
		}
		out[i] = bucket{le: after[i].le, count: d}
	}
	return out, nil
}

// total is the number of observations in bs.
func total(bs []bucket) float64 {
	n := 0.0
	for _, b := range bs {
		n += b.count
	}
	return n
}

// fracWithin is the share of observations at or below bound, exact when
// bound is a bucket bound; NaN when there are none.
func fracWithin(bs []bucket, bound float64) float64 {
	n, in := total(bs), 0.0
	for _, b := range bs {
		if b.le <= bound {
			in += b.count
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return in / n
}
