package obs

// Ring is the bounded drop-oldest buffer of the run and request tracers,
// the profiler, the flight recorder and the tsdb event history. It keeps
// items oldest first under a count bound and a byte bound (0 leaves a
// bound off). An add that crosses a bound evicts the oldest unpinned
// item, the oldest pinned item only when every other item is pinned, and
// never the item just added, so an item over the byte bound still lands.
// The buffer is circular and grows up to the count bound, so an add to a
// full count-bounded ring allocates nothing; an evicted slot is zeroed,
// so nothing pins what has left the ring. The owner does the locking.
type Ring[T any] struct {
	buf      []ringSlot[T] // item i (0 = oldest) at buf[(head+i) % len(buf)]
	head, n  int
	maxItems int
	maxBytes int64
	bytes    int64
	added    int64
	evicted  int64
}

type ringSlot[T any] struct {
	item   T
	bytes  int64
	pinned bool
}

// NewRing returns an empty ring bounded to maxItems items and maxBytes
// bytes; 0 leaves that bound off.
func NewRing[T any](maxItems int, maxBytes int64) *Ring[T] {
	return &Ring[T]{maxItems: maxItems, maxBytes: maxBytes}
}

// Add appends item, counting bytes toward the byte bound, and returns
// how many items it evicted.
func (r *Ring[T]) Add(item T, bytes int64, pinned bool) int {
	before := r.evicted
	if r.maxItems > 0 && r.n >= r.maxItems {
		r.evict(r.n)
	}
	if r.n == len(r.buf) {
		c := max(8, 2*len(r.buf))
		if r.maxItems > 0 {
			c = min(c, r.maxItems)
		}
		buf := make([]ringSlot[T], c)
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	s := r.slot(r.n)
	s.item, s.bytes, s.pinned = item, bytes, pinned
	r.n++
	r.added++
	r.bytes += bytes
	for r.maxBytes > 0 && r.bytes > r.maxBytes && r.n > 1 {
		r.evict(r.n - 1)
	}
	return int(r.evicted - before)
}

// slot returns item i's slot.
func (r *Ring[T]) slot(i int) *ringSlot[T] {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// evict removes the oldest unpinned item among the oldest among items, or
// the oldest item when all of those are pinned. The items older than it
// move one slot on, so the order holds, and the freed slot is zeroed.
func (r *Ring[T]) evict(among int) {
	i := 0
	for i < among && r.slot(i).pinned {
		i++
	}
	if i == among {
		i = 0
	}
	r.bytes -= r.slot(i).bytes
	for ; i > 0; i-- {
		*r.slot(i) = *r.slot(i - 1)
	}
	r.buf[r.head] = ringSlot[T]{}
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	r.evicted++
}

// Len returns how many items the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns item i, 0 being the oldest; the pointer is valid until the
// next Add.
func (r *Ring[T]) At(i int) *T { return &r.slot(i).item }

// Items returns a copy of the items, oldest first; nil when empty.
func (r *Ring[T]) Items() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, r.n)
	for i := range out {
		out[i] = *r.At(i)
	}
	return out
}

// Newest returns the newest item that accept accepts.
func (r *Ring[T]) Newest(accept func(*T) bool) (T, bool) {
	for i := r.n - 1; i >= 0; i-- {
		if it := r.At(i); accept(it) {
			return *it, true
		}
	}
	var zero T
	return zero, false
}

// Bytes returns the bytes held, Added the items ever added and Evicted
// the items ever evicted.
func (r *Ring[T]) Bytes() int64   { return r.bytes }
func (r *Ring[T]) Added() int64   { return r.added }
func (r *Ring[T]) Evicted() int64 { return r.evicted }
