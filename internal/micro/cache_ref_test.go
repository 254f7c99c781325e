package micro

import "fmt"

// refCache is the reference model for Cache: the original implementation,
// with tags, valid bits and LRU ages in three parallel slices and the
// prefetched lines in a map. It is slow and plainly correct; the
// differential test drives it and Cache with the same address streams and
// requires identical results and statistics.
//
// It differs from the original in one line, marked below: the original
// unmarked the victim's tag even when the victim was invalid. After a
// Flush an invalid slot keeps its old tag, and that line may since have
// been prefetched into another slot of the set; unmarking it there made
// PrefetchUseful miss that line's later demand hit.
type refCache struct {
	name     string
	sets     int
	ways     int
	lineBits uint // log2(line size)
	setMask  uint64

	tags  []uint64 // sets*ways
	valid []bool
	age   []uint64
	clock uint64

	prefetchNext bool

	// Statistics since last Reset.
	Accesses uint64
	Misses   uint64
	// Prefetches counts next-line prefetch requests issued on demand
	// misses (when the prefetcher is enabled); PrefetchMisses counts the
	// subset that actually had to fill (were not already resident).
	Prefetches     uint64
	PrefetchMisses uint64
	PrefetchUseful uint64
	prefetched     map[uint64]bool // lines resident due to prefetch, not yet demanded
}

// newRefCache builds a cache with the given total size, associativity, and
// line size, all in bytes. Size must be divisible by ways*lineSize and the
// resulting set count must be a power of two.
func newRefCache(name string, size, ways, lineSize int) (*refCache, error) {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("micro: cache %q: non-positive geometry", name)
	}
	if size%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("micro: cache %q: size %d not divisible by ways*line %d",
			name, size, ways*lineSize)
	}
	sets := size / (ways * lineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("micro: cache %q: set count %d not a power of two", name, sets)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("micro: cache %q: line size %d not a power of two", name, lineSize)
	}
	lb := uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	return &refCache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
		age:      make([]uint64, sets*ways),
	}, nil
}

// EnablePrefetcher turns on the next-line prefetcher: every demand miss
// also fills the sequentially next line, the dominant hardware prefetch
// policy for streaming access patterns.
func (c *refCache) EnablePrefetcher() {
	c.prefetchNext = true
	if c.prefetched == nil {
		c.prefetched = make(map[uint64]bool)
	}
}

// Access looks up addr, fills on miss, and reports whether it hit.
func (c *refCache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	hit := c.lookupFill(line, false)
	if !hit && c.prefetchNext {
		c.Prefetches++
		if !c.lookupFill(line+1, true) {
			c.PrefetchMisses++
		}
	}
	return hit
}

// lookupFill performs the set lookup and fill-on-miss for a line address.
// Demand accesses update the access/miss statistics; prefetch fills do
// not (they have their own counters at the call site).
func (c *refCache) lookupFill(line uint64, prefetch bool) bool {
	c.clock++
	if !prefetch {
		c.Accesses++
	}
	set := int(line & c.setMask)
	tag := line
	base := set * c.ways

	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			if !prefetch && c.prefetched != nil && c.prefetched[line] {
				c.PrefetchUseful++
				delete(c.prefetched, line)
			}
			return true
		}
		if !c.valid[i] {
			victim = i
			oldest = 0
		} else if c.age[i] < oldest {
			victim = i
			oldest = c.age[i]
		}
	}
	if !prefetch {
		c.Misses++
	}
	if c.prefetched != nil {
		if c.valid[victim] { // the original deleted unconditionally
			delete(c.prefetched, c.tags[victim])
		}
		if prefetch {
			c.prefetched[line] = true
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.age[victim] = c.clock
	return false
}

// ResetStats clears the access/miss counters but keeps cache contents,
// modelling a counter read-and-clear without disturbing the hierarchy.
func (c *refCache) ResetStats() {
	c.Accesses = 0
	c.Misses = 0
	c.Prefetches = 0
	c.PrefetchMisses = 0
	c.PrefetchUseful = 0
}

// Flush invalidates all lines and clears statistics (e.g. a fresh
// container/machine per measured sample).
func (c *refCache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.age[i] = 0
	}
	c.clock = 0
	if c.prefetched != nil {
		c.prefetched = make(map[uint64]bool)
	}
	c.ResetStats()
}
