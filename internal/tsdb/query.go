package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Query errors, distinguished so the HTTP layer can map them onto
// status codes (unknown metric → 404, the rest → 400).
var (
	ErrUnknownMetric = errors.New("tsdb: unknown metric")
	ErrBadRange      = errors.New("tsdb: query range has from after to")
	ErrBadAgg        = errors.New("tsdb: unknown aggregation")
)

// Aggregations accepted by QueryRange.
var Aggregations = []string{"avg", "min", "max", "sum", "count", "rate"}

// QueryPoint is one aligned output bucket.
type QueryPoint struct {
	T int64   `json:"t_ms"`
	V float64 `json:"v"`
}

// QueryResult is the /api/v1/query_range payload for one series.
type QueryResult struct {
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Agg    string `json:"agg"`
	// Tier names the resolution tier that answered ("raw", "15s", "2m").
	Tier   string `json:"tier"`
	StepMS int64  `json:"step_ms"`
	FromMS int64  `json:"from_ms"`
	ToMS   int64  `json:"to_ms"`
	// Points holds only buckets that contain data (no null padding).
	Points []QueryPoint `json:"points"`
}

// QueryRange answers a Prometheus-style range query: metric samples in
// [fromMS, toMS], aligned to stepMS-wide buckets, reduced by agg:
//
//	avg (default) — bucket mean
//	min, max      — bucket extremes (spikes survive downsampling)
//	sum, count    — bucket totals
//	rate          — per-second increase of a cumulative counter,
//	                differenced across bucket means and clamped at 0
//	                across process restarts
//
// The answering tier is the coarsest one whose resolution still fits
// the requested step (so a 1-hour query is not paid for in raw points),
// promoted to a coarser tier when the requested window predates the
// finer tier's retention. stepMS <= 0 asks for the tier's native
// resolution.
func (st *Store) QueryRange(metric string, fromMS, toMS, stepMS int64, agg string) (QueryResult, error) {
	switch agg {
	case "":
		agg = "avg"
	case "avg", "min", "max", "sum", "count", "rate":
	default:
		return QueryResult{}, fmt.Errorf("%w %q (want one of avg min max sum count rate)", ErrBadAgg, agg)
	}
	res := QueryResult{Metric: metric, Agg: agg, FromMS: fromMS, ToMS: toMS}
	if fromMS > toMS {
		return res, ErrBadRange
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[metric]
	if !ok {
		return res, fmt.Errorf("%w %q", ErrUnknownMetric, metric)
	}
	res.Kind = s.kind

	// Tier selection: coarsest tier with resolution <= step, then
	// promoted while the window predates its retention and an even
	// coarser tier actually holds older history.
	rawRes := st.cfg.Interval.Milliseconds()
	if rawRes < 1 {
		rawRes = 1
	}
	resOf := func(i int) int64 {
		switch i {
		case 0:
			return rawRes
		case 1:
			return midResMS
		default:
			return longResMS
		}
	}
	tier := 0
	if stepMS > 0 {
		for i := 1; i < len(s.tiers); i++ {
			if resOf(i) <= stepMS {
				tier = i
			}
		}
	}
	for tier < len(s.tiers)-1 {
		oldest, ok := s.tiers[tier].oldest()
		if ok && oldest <= fromMS {
			break
		}
		// Promote only when the coarser tier genuinely reaches further
		// back — by more than its own bucket alignment, which always
		// rounds a bucket start a little earlier than the raw samples
		// inside it.
		coarser, cok := s.tiers[tier+1].oldest()
		if !cok || (ok && coarser >= oldest-resOf(tier+1)) {
			break
		}
		tier++
	}
	res.Tier = tierNames[tier]
	if stepMS < resOf(tier) {
		stepMS = resOf(tier)
	}
	res.StepMS = stepMS

	// Merge tier points into aligned output buckets. Points arrive
	// oldest-first, so buckets fill in order.
	type bucket struct {
		t int64
		p Point
	}
	var buckets []bucket
	// A downsampled bucket's aligned start can precede from while its
	// samples are in range; reach one resolution back so that bucket is
	// not dropped (it lands in output bucket 0, since step >= resolution).
	// Near the bottom of int64 there is nothing to reach back to.
	scanFrom := fromMS
	if tr := s.tiers[tier].resMS; tr > 0 && fromMS > math.MinInt64+tr {
		scanFrom = fromMS - (tr - 1)
	}
	s.tiers[tier].scan(scanFrom, toMS, func(p Point) {
		t := bucketStart(p.T, fromMS, stepMS)
		if n := len(buckets); n > 0 && buckets[n-1].t == t {
			buckets[n-1].p.merge(p)
			return
		}
		buckets = append(buckets, bucket{t: t, p: p})
	})

	if agg == "rate" {
		// Seed with the newest point before the window so the first
		// bucket has a predecessor to difference against.
		prev, havePrev := s.tiers[tier].lastBefore(fromMS)
		prevAvg, prevT := prev.avg(), prev.T
		for _, b := range buckets {
			v := 0.0
			if havePrev {
				dtSec := float64(b.p.T-prevT) / 1000
				if dtSec > 0 {
					v = (b.p.avg() - prevAvg) / dtSec
				}
				if v < 0 { // counter reset
					v = 0
				}
			}
			res.Points = append(res.Points, QueryPoint{T: b.t, V: v})
			prevAvg, prevT, havePrev = b.p.avg(), b.p.T, true
		}
		return res, nil
	}

	for _, b := range buckets {
		var v float64
		switch agg {
		case "min":
			v = b.p.Min
		case "max":
			v = b.p.Max
		case "sum":
			v = b.p.Sum
		case "count":
			v = float64(b.p.Count)
		default:
			v = b.p.avg()
		}
		res.Points = append(res.Points, QueryPoint{T: b.t, V: v})
	}
	return res, nil
}

// bucketStart returns the start of the stepMS-wide output bucket, counted
// from fromMS, that holds a point at tMS; a point before fromMS belongs
// to the first bucket. The difference is taken unsigned, where it is
// exact for any two int64s, so a from near the bottom of int64 cannot
// overflow it.
func bucketStart(tMS, fromMS, stepMS int64) int64 {
	if tMS <= fromMS {
		return fromMS
	}
	return tMS - int64((uint64(tMS)-uint64(fromMS))%uint64(stepMS))
}

// TierInfo describes one resolution tier of a series in the catalog.
type TierInfo struct {
	Name     string `json:"name"`
	ResMS    int64  `json:"res_ms"`
	Points   int    `json:"points"`
	Capacity int    `json:"capacity"`
	OldestMS int64  `json:"oldest_ms,omitempty"`
}

// SeriesInfo is one catalog entry of the /api/v1/series payload.
type SeriesInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Samples counts every scrape that touched the series.
	Samples int64      `json:"samples"`
	Tiers   []TierInfo `json:"tiers"`
}

// Catalog is the /api/v1/series payload.
type Catalog struct {
	// FirstMS / LastMS bound the scraped time range.
	FirstMS int64 `json:"first_ms"`
	LastMS  int64 `json:"last_ms"`
	// IntervalMS is the scrape period.
	IntervalMS int64        `json:"interval_ms"`
	Series     []SeriesInfo `json:"series"`
}

// Series returns the catalog of every retained series, sorted by name.
func (st *Store) Series() Catalog {
	st.mu.Lock()
	defer st.mu.Unlock()
	cat := Catalog{FirstMS: st.firstMS, LastMS: st.lastMS,
		IntervalMS: st.cfg.Interval.Milliseconds()}
	rawRes := st.cfg.Interval.Milliseconds()
	for name, s := range st.series {
		info := SeriesInfo{Name: name, Kind: s.kind, Samples: s.samples}
		for i, r := range s.tiers {
			ti := TierInfo{Name: tierNames[i], ResMS: r.resMS,
				Points: r.length(), Capacity: r.capacity()}
			if i == 0 {
				ti.ResMS = rawRes
			}
			if o, ok := r.oldest(); ok {
				ti.OldestMS = o
			}
			info.Tiers = append(info.Tiers, ti)
		}
		cat.Series = append(cat.Series, info)
	}
	sort.Slice(cat.Series, func(i, j int) bool {
		return cat.Series[i].Name < cat.Series[j].Name
	})
	return cat
}
