package tsdb

// preallocRing is a tier as it was before its slots grew on demand:
// every one of its capacity slots is allocated when the series is
// created. It is kept as the reference the growing ring must answer
// exactly as, and it is the ring code of that time, renamed.
type preallocRing struct {
	resMS int64
	pts   []Point
	raw   []sample
	next  int
	full  bool
}

func newPreallocRing(resMS int64, capacity int) *preallocRing {
	if resMS == 0 {
		return &preallocRing{raw: make([]sample, capacity)}
	}
	return &preallocRing{resMS: resMS, pts: make([]Point, capacity)}
}

func (r *preallocRing) capacity() int {
	if r.raw != nil {
		return len(r.raw)
	}
	return len(r.pts)
}

func (r *preallocRing) at(i int) Point {
	if r.raw != nil {
		s := r.raw[i]
		return Point{T: s.t, Min: s.v, Max: s.v, Sum: 0 + s.v, Count: 1}
	}
	return r.pts[i]
}

func (r *preallocRing) lastIdx() int {
	if r.next == 0 && !r.full {
		return -1
	}
	return (r.next - 1 + r.capacity()) % r.capacity()
}

func (r *preallocRing) length() int {
	if r.full {
		return r.capacity()
	}
	return r.next
}

func (r *preallocRing) observe(tMS int64, v float64) {
	if r.raw != nil {
		if i := r.lastIdx(); i >= 0 && r.raw[i].t == tMS {
			r.raw[i].v = v
			return
		}
		r.raw[r.next] = sample{t: tMS, v: v}
	} else {
		bucket := tMS - tMS%r.resMS
		if i := r.lastIdx(); i >= 0 && r.pts[i].T == bucket {
			r.pts[i].observe(v)
			return
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

func (r *preallocRing) oldest() (int64, bool) {
	if r.full {
		return r.at(r.next).T, true
	}
	if r.next == 0 {
		return 0, false
	}
	return r.at(0).T, true
}

func (r *preallocRing) scan(fromMS, toMS int64, fn func(Point)) {
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

func (r *preallocRing) lastBefore(fromMS int64) (Point, bool) {
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

// ring views the reference's slots as a ring, for a store whose queries
// must read them through the shared query code.
func (r *preallocRing) ring() *ring {
	return &ring{resMS: r.resMS, pts: r.pts, raw: r.raw, bound: r.capacity(), next: r.next, full: r.full}
}
