package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is noise, not a tail.
const minBeyond = 10

// tailQ is the tail percentile latency_tail_ms reports. The header also
// prints p99 wherever ten samples lie beyond it, but on fleet-http p99
// falls where the daemon's GC cycles start to show: across runs it moved
// by 20-50% (interquartile range over median), p95 by about 5%.
const tailQ = 0.95

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs. ok is false when
// fewer than minBeyond samples lie beyond it, because such a percentile
// says nothing the maximum does not.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	return sorted(xs)[rank-1], true
}

// tail returns the tailQ percentile of xs and q = tailQ. With too few
// samples for it, it falls back to the median and reports q = 0.5.
func tail(xs []float64) (q, v float64) {
	if v, ok := percentile(xs, tailQ); ok {
		return tailQ, v
	}
	return 0.5, median(xs)
}

// describe summarizes latency samples for the result header: the count,
// the median, and p95 and p99 where percentile supports them.
func describe(ms []float64) string {
	s := fmt.Sprintf("n=%d p50=%.3f ms", len(ms), median(ms))
	for _, q := range []float64{0.95, 0.99} {
		if v, ok := percentile(ms, q); ok {
			s += fmt.Sprintf(" p%g=%.3f ms", q*100, v)
		}
	}
	return s
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones computed from the same values in
// Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
