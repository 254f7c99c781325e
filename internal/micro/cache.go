// Package micro implements the microarchitectural substrate of the
// reproduction: set-associative caches, TLBs, a gshare branch predictor and
// a core model that turns abstract instruction-block descriptors into
// hardware event counts.
//
// The paper measured real Haswell hardware through Linux perf; we replace
// the silicon with structural models so that the 16 HPC features the
// detector consumes arise from actual cache/branch/TLB mechanics reacting
// to workload behaviour (footprints, strides, branch entropy), not from
// hand-painted numbers. See DESIGN.md for the substitution argument.
package micro

import "fmt"

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	sets     int
	ways     int
	lineBits uint // log2(line size)
	setMask  uint64

	// tags and ages hold the sets*ways slots, set-major. An invalid slot
	// has age 0 and tag invalidTag. A valid slot's age is the clock at its
	// last use, with bit 0 set while a prefetched line awaits its first
	// demand. The clock steps by 2, so valid ages are distinct and the
	// smallest is the least recently used.
	tags  []uint64
	ages  []uint64
	clock uint64
	last  int // slot of the last demand access, checked before the set scan

	prefetchNext bool

	// Statistics since last Reset.
	Accesses uint64
	Misses   uint64
	// Prefetches counts next-line prefetch requests issued on demand
	// misses (when the prefetcher is enabled); PrefetchMisses counts the
	// subset that actually had to fill (were not already resident), and
	// PrefetchUseful the prefetched lines demanded before eviction.
	Prefetches     uint64
	PrefetchMisses uint64
	PrefetchUseful uint64
}

// NewCache builds a cache with the given total size, associativity, and
// line size, all in bytes. Size must be divisible by ways*lineSize and the
// resulting set count must be a power of two.
func NewCache(name string, size, ways, lineSize int) (*Cache, error) {
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
	c := &Cache{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		ages:     make([]uint64, sets*ways),
	}
	c.Flush()
	return c, nil
}

// MustCache is NewCache that panics on configuration error; used for the
// fixed, known-good machine configurations in this package.
func MustCache(name string, size, ways, lineSize int) *Cache {
	c, err := NewCache(name, size, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// EnablePrefetcher turns on the next-line prefetcher: every demand miss
// also fills the sequentially next line, the dominant hardware prefetch
// policy for streaming access patterns.
func (c *Cache) EnablePrefetcher() { c.prefetchNext = true }

// invalidTag is the tag of an invalid slot. Only a cache of one-byte
// lines can hold a line equal to it, so a match on it also needs a
// nonzero age.
const invalidTag = ^uint64(0)

// Access looks up addr, fills on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	c.clock += 2
	c.Accesses++
	// The last demand slot holds line exactly when the set scan would
	// find it there: a line is resident in at most one slot.
	i := c.last
	if c.tags[i] != line || c.ages[i] == 0 {
		hit, victim := c.find(line)
		if hit < 0 || c.ages[hit] == 0 {
			c.last = victim
			c.Misses++
			c.tags[victim], c.ages[victim] = line, c.clock
			if c.prefetchNext {
				c.prefetch(line + 1)
			}
			return false
		}
		i, c.last = hit, hit
	}
	c.PrefetchUseful += c.ages[i] & 1
	c.ages[i] = c.clock
	return true
}

// prefetch looks up the next line of a demand miss and fills it, marked,
// if it is not resident. A hit keeps the line's mark.
func (c *Cache) prefetch(line uint64) {
	c.clock += 2
	c.Prefetches++
	hit, victim := c.find(line)
	if hit >= 0 && c.ages[hit] != 0 {
		c.ages[hit] = c.clock | c.ages[hit]&1
		return
	}
	c.PrefetchMisses++
	c.tags[victim], c.ages[victim] = line, c.clock|1
}

// find scans line's set and returns the last slot whose tag is line (-1
// if none) and the slot to refill on a miss: the last invalid slot, else
// the least recently used one. Which way matches and which is oldest are
// as random as the address, so the loop compiles to conditional moves:
// one compare per way and no early exit.
//
// When line equals invalidTag the match may be an invalid slot, so
// callers count a match of age 0 as a miss. That is exact because a
// set's invalid slots lie below its valid ones (only Flush invalidates,
// and then every slot, and a refill takes the last invalid slot): the
// last match is the resident slot if there is one, else the victim.
func (c *Cache) find(line uint64) (hit, victim int) {
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	ages := c.ages[base : base+len(tags)]
	hit = -1
	oldest := ^uint64(0)
	for i, t := range tags {
		if t == line {
			hit = base + i
		}
		a := ages[i]
		if a <= oldest {
			victim = base + i
		}
		oldest = min(oldest, a)
	}
	return hit, victim
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineBits }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * c.LineSize() }

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears the access/miss counters but keeps cache contents,
// modelling a counter read-and-clear without disturbing the hierarchy.
func (c *Cache) ResetStats() {
	c.Accesses = 0
	c.Misses = 0
	c.Prefetches = 0
	c.PrefetchMisses = 0
	c.PrefetchUseful = 0
}

// Flush invalidates all lines and clears statistics (e.g. a fresh
// container/machine per measured sample).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.ages)
	c.clock = 0
	c.ResetStats()
}

// TLB is a fully-associative translation lookaside buffer over fixed-size
// pages with LRU replacement, reusing the cache machinery with one set.
type TLB struct {
	cache    *Cache
	pageBits uint
}

// NewTLB builds a TLB with the given number of entries and page size.
func NewTLB(name string, entries, pageSize int) (*TLB, error) {
	if entries <= 0 || pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("micro: tlb %q: bad geometry entries=%d page=%d", name, entries, pageSize)
	}
	// One set, `entries` ways, "line size" of one byte: we feed it page
	// numbers directly, so spatial locality inside a page maps to one tag.
	c, err := NewCache(name, entries, entries, 1)
	if err != nil {
		return nil, err
	}
	pb := uint(0)
	for 1<<pb < pageSize {
		pb++
	}
	return &TLB{cache: c, pageBits: pb}, nil
}

// MustTLB is NewTLB that panics on configuration error.
func MustTLB(name string, entries, pageSize int) *TLB {
	t, err := NewTLB(name, entries, pageSize)
	if err != nil {
		panic(err)
	}
	return t
}

// Access translates addr and reports whether the translation hit.
func (t *TLB) Access(addr uint64) bool {
	return t.cache.Access(addr >> t.pageBits)
}

// Accesses returns the number of lookups since the last reset.
func (t *TLB) Accesses() uint64 { return t.cache.Accesses }

// Misses returns the number of misses since the last reset.
func (t *TLB) Misses() uint64 { return t.cache.Misses }

// ResetStats clears counters, keeping TLB contents.
func (t *TLB) ResetStats() { t.cache.ResetStats() }

// Flush invalidates all entries.
func (t *TLB) Flush() { t.cache.Flush() }
