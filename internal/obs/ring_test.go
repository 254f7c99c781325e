package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// has reports whether the ring holds the item id.
func has(r *Ring[string], id string) bool {
	_, ok := r.Newest(func(s *string) bool { return *s == id })
	return ok
}

// TestRingEvictsOldestFirst fills past the byte bound and asserts items
// leave in insertion order.
func TestRingEvictsOldestFirst(t *testing.T) {
	r := NewRing[string](0, 300)
	for i := 0; i < 3; i++ {
		if d := r.Add(fmt.Sprintf("c%d", i), 100, false); d != 0 {
			t.Fatalf("add %d: dropped %d before budget exceeded", i, d)
		}
	}
	if d := r.Add("c3", 100, false); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if has(r, "c0") {
		t.Fatal("c0 (oldest) should have been evicted")
	}
	if !has(r, "c1") || !has(r, "c3") {
		t.Fatal("newer items must survive")
	}
	if r.Bytes() != 300 {
		t.Fatalf("bytes = %d, want 300", r.Bytes())
	}
}

// TestRingPinnedSurvives interleaves pinned and unpinned items:
// evictions must take every unpinned item before touching a pinned one,
// regardless of age.
func TestRingPinnedSurvives(t *testing.T) {
	r := NewRing[string](0, 300)
	r.Add("pin0", 100, true) // oldest, pinned
	r.Add("int1", 100, false)
	r.Add("int2", 100, false)
	// Over budget: int1 (oldest unpinned) must go, not pin0.
	if d := r.Add("int3", 100, false); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if !has(r, "pin0") {
		t.Fatal("pinned item evicted while unpinned items remained")
	}
	if has(r, "int1") {
		t.Fatal("oldest unpinned item should have been evicted")
	}
	// Again: int2 goes, pin0 still survives.
	r.Add("int4", 100, false)
	if !has(r, "pin0") || has(r, "int2") {
		t.Fatal("second eviction must take int2, keep pin0")
	}
}

// TestRingAllPinnedStaysBounded: when only pinned items remain, the
// oldest pinned is evicted — the bound holds, pins or not.
func TestRingAllPinnedStaysBounded(t *testing.T) {
	r := NewRing[string](0, 300)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("pin%d", i), 100, true)
	}
	if r.Bytes() > 300 {
		t.Fatalf("bytes = %d exceeds budget 300 with all-pinned ring", r.Bytes())
	}
	if has(r, "pin0") || has(r, "pin1") {
		t.Fatal("oldest pinned items must be evicted once only pinned remain")
	}
	if !has(r, "pin4") {
		t.Fatal("newest item must always survive")
	}
}

// TestRingOversizeBlobLands: a single item larger than the whole byte
// bound still lands (and flushes everything older) — the newest item is
// never the victim.
func TestRingOversizeBlobLands(t *testing.T) {
	r := NewRing[string](0, 300)
	r.Add("small", 100, true)
	if d := r.Add("huge", 1000, false); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if !has(r, "huge") {
		t.Fatal("oversize item must land")
	}
	if r.Len() != 1 {
		t.Fatalf("ring holds %d items, want 1", r.Len())
	}
}

// TestRingCountBoundWraps is the event rings' shape: a count bound, no
// byte bound, nothing pinned. The buffer stops growing at the bound and
// keeps the newest items, oldest first, as it wraps.
func TestRingCountBoundWraps(t *testing.T) {
	r := NewRing[int](5, 0)
	for i := 0; i < 13; i++ {
		r.Add(i, 0, false)
	}
	if got, want := r.Items(), []int{8, 9, 10, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("items = %v, want %v", got, want)
	}
	if r.Added() != 13 || r.Evicted() != 8 || r.Len() != 5 || len(r.buf) != 5 {
		t.Fatalf("added %d evicted %d len %d slots %d, want 13/8/5/5",
			r.Added(), r.Evicted(), r.Len(), len(r.buf))
	}
	if *r.At(0) != 8 || *r.At(4) != 12 {
		t.Fatalf("At(0), At(4) = %d, %d, want 8, 12", *r.At(0), *r.At(4))
	}
}

// TestRingGrowsAfterWrap: a ring without a count bound that fills its
// buffer after evictions have moved its head unwraps oldest first as it
// grows.
func TestRingGrowsAfterWrap(t *testing.T) {
	r := NewRing[int](0, 6)
	for i := 0; i < 9; i++ {
		r.Add(i, 1, false)
	}
	for i := 9; i < 20; i++ {
		r.Add(i, 0, false)
	}
	var want []int
	for i := 3; i < 20; i++ {
		want = append(want, i)
	}
	if got := r.Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("items = %v, want %v", got, want)
	}
	if r.Evicted() != 3 || r.Bytes() != 6 {
		t.Fatalf("evicted %d bytes %d, want 3/6", r.Evicted(), r.Bytes())
	}
}

// TestRingBothBounds: one add can trip the count bound and then the byte
// bound, and the counts track every eviction.
func TestRingBothBounds(t *testing.T) {
	r := NewRing[string](3, 250)
	r.Add("a", 100, false)
	r.Add("b", 100, false)
	if d := r.Add("c", 100, false); d != 1 || has(r, "a") {
		t.Fatalf("byte bound: dropped %d, items %v", d, r.Items())
	}
	r.Add("d", 10, false)
	if d := r.Add("e", 10, false); d != 1 || has(r, "b") {
		t.Fatalf("count bound: dropped %d, items %v", d, r.Items())
	}
	// Count bound evicts c, then the byte bound d, e and f.
	r.Add("f", 200, false)
	if d := r.Add("g", 240, false); d != 3 {
		t.Fatalf("both bounds: dropped %d, want 3 (items %v)", d, r.Items())
	}
	if got := r.Items(); !reflect.DeepEqual(got, []string{"g"}) {
		t.Fatalf("items = %v, want [g]", got)
	}
	if r.Added() != 7 || r.Evicted() != 6 || r.Bytes() != 240 {
		t.Fatalf("added %d evicted %d bytes %d, want 7/6/240", r.Added(), r.Evicted(), r.Bytes())
	}
}

// TestRingEvictsBehindPinnedAfterWrap: with the oldest item pinned, each
// add evicts the unpinned item behind it, moving the pinned item one
// slot on, also across the end of the wrapped buffer.
func TestRingEvictsBehindPinnedAfterWrap(t *testing.T) {
	r := NewRing[string](4, 0)
	r.Add("p0", 0, true)
	for i := 1; i < 4; i++ {
		r.Add(fmt.Sprintf("u%d", i), 0, false)
	}
	for i := 4; i < 11; i++ {
		r.Add(fmt.Sprintf("u%d", i), 0, false)
		want := []string{"p0", fmt.Sprintf("u%d", i-2), fmt.Sprintf("u%d", i-1), fmt.Sprintf("u%d", i)}
		if got := r.Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after u%d (head %d): items = %v, want %v", i, r.head, got, want)
		}
	}
	if r.Evicted() != 7 {
		t.Fatalf("evicted = %d, want 7", r.Evicted())
	}
	if got, ok := r.Newest(func(s *string) bool { return (*s)[0] == 'p' }); !ok || got != "p0" {
		t.Fatalf("Newest(pinned) = %q, %v", got, ok)
	}
}

// TestRingEvictedSlotsZeroed: a slot an eviction frees holds the zero
// value, so the ring keeps nothing alive that has left it.
func TestRingEvictedSlotsZeroed(t *testing.T) {
	r := NewRing[*int](0, 2)
	for i := 0; i < 7; i++ {
		v := i
		r.Add(&v, 1, i == 2)
	}
	if got := []int{*r.Items()[0], *r.Items()[1]}; !reflect.DeepEqual(got, []int{2, 6}) {
		t.Fatalf("items = %v, want [2 6]", got)
	}
	live := 0
	for _, s := range r.buf {
		if s.item != nil {
			live++
		}
	}
	if live != r.Len() {
		t.Fatalf("%d slots hold an item, ring holds %d", live, r.Len())
	}
}

// TestRingEmpty: an empty ring has no items (nil, so JSON renders null)
// and finds nothing.
func TestRingEmpty(t *testing.T) {
	r := NewRing[int](4, 0)
	if r.Items() != nil || r.Len() != 0 || r.Added() != 0 || r.Bytes() != 0 {
		t.Fatalf("empty ring: items %v len %d added %d bytes %d", r.Items(), r.Len(), r.Added(), r.Bytes())
	}
	if _, ok := r.Newest(func(*int) bool { return true }); ok {
		t.Fatal("empty ring found an item")
	}
}
