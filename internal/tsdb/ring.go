package tsdb

import "unsafe"

// Point is one retained bucket of a series: the min/max/sum/count of
// every sample that landed in its time slot. Raw-tier points hold a
// single sample (Count 1, Min == Max == Sum); downsampled tiers merge
// many. Keeping the four moments instead of a single averaged value is
// what lets a 10 ms alarm spike survive compaction into a 2-minute
// bucket: the max is still there even after the mean has flattened.
type Point struct {
	// T is the bucket start, unix milliseconds. Raw points carry the
	// sample's own timestamp; downsampled points are aligned to the
	// tier's resolution.
	T     int64   `json:"t_ms"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// observe folds one sample into the bucket.
func (p *Point) observe(v float64) {
	if p.Count == 0 || v < p.Min {
		p.Min = v
	}
	if p.Count == 0 || v > p.Max {
		p.Max = v
	}
	p.Sum += v
	p.Count++
}

// merge folds another bucket into this one.
func (p *Point) merge(q Point) {
	if q.Count == 0 {
		return
	}
	if p.Count == 0 || q.Min < p.Min {
		p.Min = q.Min
	}
	if p.Count == 0 || q.Max > p.Max {
		p.Max = q.Max
	}
	p.Sum += q.Sum
	p.Count += q.Count
}

// avg returns the bucket mean (0 for an empty bucket).
func (p Point) avg() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// sample is one raw-tier point: a scrape's time and value, 16 B where a
// bucket takes 40.
type sample struct {
	t int64
	v float64
}

// ring is one resolution tier of one series: a circular buffer of at
// most bound points. The bound — not wall-clock — limits storage: when
// the ring is full the oldest point is overwritten, so a tier's
// retention window is bound × resolution regardless of how long the
// process runs. Until then the slots grow with the points: they start at
// firstSlots and double, capped at the bound, so a young series holds
// only the history it has. The live points sit in slots [0, next) until
// the ring first fills, and only then does it wrap. resMS 0 means "no
// bucketing": the raw tier, which keeps one (t, v) sample per scrape in
// raw and reads each back as a Count-1 Point. The bucketed tiers keep
// Points in pts; exactly one of the two is set.
type ring struct {
	resMS int64
	pts   []Point
	raw   []sample
	bound int
	next  int
	full  bool
}

// firstSlots is how many slots a tier allocates at its first point.
const firstSlots = 8

// Slot sizes in bytes: a raw sample and a bucket.
const (
	sampleBytes = int(unsafe.Sizeof(sample{}))
	pointBytes  = int(unsafe.Sizeof(Point{}))
)

func newRing(resMS int64, capacity int) *ring {
	n := min(firstSlots, capacity)
	if resMS == 0 {
		return &ring{raw: make([]sample, n), bound: capacity}
	}
	return &ring{resMS: resMS, pts: make([]Point, n), bound: capacity}
}

// capacity returns the ring's bound in points.
func (r *ring) capacity() int { return r.bound }

// slots returns how many points the ring has room for now.
func (r *ring) slots() int {
	if r.raw != nil {
		return len(r.raw)
	}
	return len(r.pts)
}

// bytes returns the bytes of the ring's allocated slots.
func (r *ring) bytes() int {
	if r.raw != nil {
		return len(r.raw) * sampleBytes
	}
	return len(r.pts) * pointBytes
}

// grow doubles the ring's slots, capped at its bound. It runs only
// before the ring first fills, when the live points are slots [0, next).
func (r *ring) grow() {
	n := min(2*r.slots(), r.bound)
	if r.raw != nil {
		r.raw = append(make([]sample, 0, n), r.raw...)[:n]
	} else {
		r.pts = append(make([]Point, 0, n), r.pts...)[:n]
	}
}

// at returns the point in slot i, for i below the bound. A raw sample
// reads as the Count-1 bucket Point.observe makes from it, whose Sum is
// 0 + v: a -0 sample has Min and Max -0 but sums to +0. A slot the ring
// has not grown to yet holds no point and reads as the zero Point.
func (r *ring) at(i int) Point {
	if r.raw != nil {
		if i >= len(r.raw) {
			return Point{}
		}
		s := r.raw[i]
		return Point{T: s.t, Min: s.v, Max: s.v, Sum: 0 + s.v, Count: 1}
	}
	if i >= len(r.pts) {
		return Point{}
	}
	return r.pts[i]
}

// lastIdx returns the index of the most recently written point, or -1
// when the ring is empty.
func (r *ring) lastIdx() int {
	if r.next == 0 && !r.full {
		return -1
	}
	return (r.next - 1 + r.capacity()) % r.capacity()
}

// len returns the number of live points.
func (r *ring) length() int {
	if r.full {
		return r.capacity()
	}
	return r.next
}

// observe streams one sample in: it merges into the newest bucket when
// the sample falls in the same time slot, else appends a fresh bucket
// (evicting the oldest when full). Samples are assumed to arrive in
// non-decreasing time order — the scraper is the only writer. A raw
// sample has no bucket to merge into: a second sample in the same
// millisecond replaces the first (the last value wins). Run's ticker
// never scrapes twice in one millisecond.
func (r *ring) observe(tMS int64, v float64) {
	if r.raw != nil {
		if i := r.lastIdx(); i >= 0 && r.raw[i].t == tMS {
			r.raw[i].v = v
			return
		}
		if r.next == len(r.raw) {
			r.grow()
		}
		r.raw[r.next] = sample{t: tMS, v: v}
	} else {
		bucket := tMS - tMS%r.resMS
		if i := r.lastIdx(); i >= 0 && r.pts[i].T == bucket {
			r.pts[i].observe(v)
			return
		}
		if r.next == len(r.pts) {
			r.grow()
		}
		p := Point{T: bucket}
		p.observe(v)
		r.pts[r.next] = p
	}
	r.next = (r.next + 1) % r.capacity()
	if r.next == 0 {
		r.full = true
	}
}

// oldest returns the oldest retained bucket's start time.
func (r *ring) oldest() (int64, bool) {
	if r.full {
		return r.at(r.next).T, true
	}
	if r.next == 0 {
		return 0, false
	}
	return r.at(0).T, true
}

// scan calls fn for every retained point with T in [fromMS, toMS],
// oldest first.
func (r *ring) scan(fromMS, toMS int64, fn func(Point)) {
	n := r.length()
	start := 0
	if r.full {
		start = r.next
	}
	for i := 0; i < n; i++ {
		p := r.at((start + i) % r.capacity())
		if p.T < fromMS || p.T > toMS {
			continue
		}
		fn(p)
	}
}

// lastBefore returns the newest point strictly older than fromMS — the
// seed for rate queries, so the first visible bucket has a predecessor
// to difference against.
func (r *ring) lastBefore(fromMS int64) (Point, bool) {
	n := r.length()
	start := 0
	if r.full {
		start = r.next
	}
	var got Point
	var ok bool
	for i := 0; i < n; i++ {
		p := r.at((start + i) % r.capacity())
		if p.T >= fromMS {
			break
		}
		got, ok = p, true
	}
	return got, ok
}

// series is one named metric stream across all resolution tiers.
type series struct {
	name    string
	kind    string
	samples int64
	tiers   []*ring // raw, mid, long — finest first
}

func (s *series) observe(tMS int64, v float64) {
	s.samples++
	for _, r := range s.tiers {
		r.observe(tMS, v)
	}
}
