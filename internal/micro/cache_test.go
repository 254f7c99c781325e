package micro

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCacheGeometry(t *testing.T) {
	c := MustCache("t", 32<<10, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 || c.LineSize() != 64 {
		t.Fatalf("geometry sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
	if c.SizeBytes() != 32<<10 {
		t.Fatalf("size %d", c.SizeBytes())
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		size, ways, line int
	}{
		{0, 8, 64},          // zero size
		{32 << 10, 0, 64},   // zero ways
		{100, 1, 64},        // size not divisible
		{3 * 64 * 8, 8, 64}, // 3 sets: not power of two
		{32 << 10, 8, 48},   // line not power of two
	}
	for _, tc := range cases {
		if _, err := NewCache("bad", tc.size, tc.ways, tc.line); err == nil {
			t.Fatalf("accepted bad geometry %+v", tc)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := MustCache("t", 1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1008) {
		t.Fatal("same-line access missed")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill a set with 2 lines, touch the first, insert a
	// third; the second (least recently used) must be evicted.
	c := MustCache("t", 2*64*4, 2, 64) // 4 sets, 2 ways
	setStride := uint64(4 * 64)        // addresses mapping to set 0
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a was evicted despite being MRU")
	}
	if c.Access(b) {
		t.Fatal("b survived eviction")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := MustCache("t", 8<<10, 8, 64)
	// Working set half the cache: after warmup, zero misses.
	for pass := 0; pass < 3; pass++ {
		c.ResetStats()
		for addr := uint64(0); addr < 4<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Misses != 0 {
		t.Fatalf("fitting working set missed %d times", c.Misses)
	}
}

func TestCacheThrashing(t *testing.T) {
	c := MustCache("t", 1<<10, 1, 64) // direct-mapped 1 KB
	// Working set 4x the cache, sequential sweep: every access misses
	// after the set conflicts wrap.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 4<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.MissRate() < 0.9 {
		t.Fatalf("thrashing miss rate %v, want ~1", c.MissRate())
	}
}

func TestCacheFlushAndReset(t *testing.T) {
	c := MustCache("t", 1<<10, 2, 64)
	c.Access(0x40)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Access(0x40) {
		t.Fatal("ResetStats lost cache contents")
	}
	c.Flush()
	if c.Access(0x40) {
		t.Fatal("Flush kept cache contents")
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := MustTLB("t", 4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Fatal("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Fatal("different page hit")
	}
	// Fill beyond capacity: 4-entry TLB, touch 5 pages, first is evicted.
	tlb.Flush()
	for p := uint64(0); p < 5; p++ {
		tlb.Access(p * 4096)
	}
	if tlb.Access(0) {
		t.Fatal("LRU page survived over-capacity fill")
	}
}

func TestTLBRejectsBadGeometry(t *testing.T) {
	if _, err := NewTLB("bad", 0, 4096); err == nil {
		t.Fatal("accepted zero entries")
	}
	if _, err := NewTLB("bad", 4, 1000); err == nil {
		t.Fatal("accepted non-power-of-two page size")
	}
}

// Property: miss count never exceeds access count, and hit-after-fill holds
// for arbitrary addresses.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := MustCache("t", 4<<10, 4, 64)
		for i := 0; i < 500; i++ {
			addr := uint64(src.Intn(1 << 16))
			c.Access(addr)
			if !c.Access(addr) { // immediate re-access must hit
				return false
			}
		}
		return c.Misses <= c.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(12, 256)
	// Always-taken branch at one PC: after warmup, no mispredictions.
	for i := 0; i < 100; i++ {
		bp.Predict(0x400000, true)
	}
	bp.ResetStats()
	for i := 0; i < 1000; i++ {
		bp.Predict(0x400000, true)
	}
	if bp.Mispredicted != 0 {
		t.Fatalf("biased branch mispredicted %d times after warmup", bp.Mispredicted)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp := NewBranchPredictor(12, 256)
	src := rng.New(99)
	for i := 0; i < 20000; i++ {
		bp.Predict(0x400000+uint64(i%16)*4, src.Bool(0.5))
	}
	rate := bp.MispredictRate()
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("random branches mispredict rate %v, want ~0.5", rate)
	}
}

func TestBranchPredictorBTB(t *testing.T) {
	bp := NewBranchPredictor(10, 16)
	// 16-entry BTB, 32 distinct taken branches that alias: persistent misses.
	for i := 0; i < 10; i++ {
		for pc := uint64(0); pc < 32; pc++ {
			bp.Predict(pc, true)
		}
	}
	if bp.BTBMisses == 0 {
		t.Fatal("aliasing taken branches produced no BTB misses")
	}
	if bp.BTBLookups != bp.Branches {
		t.Fatalf("all branches were taken: lookups %d != branches %d",
			bp.BTBLookups, bp.Branches)
	}
	// Single hot branch: after first insert, all hits.
	bp.Flush()
	for i := 0; i < 100; i++ {
		bp.Predict(0x40, true)
	}
	if bp.BTBMisses != 1 {
		t.Fatalf("hot branch BTB misses = %d, want 1", bp.BTBMisses)
	}
}

func TestBranchPredictorFlush(t *testing.T) {
	bp := NewBranchPredictor(10, 16)
	for i := 0; i < 50; i++ {
		bp.Predict(0x40, true)
	}
	bp.Flush()
	if bp.Branches != 0 || bp.BTBLookups != 0 {
		t.Fatal("Flush did not clear stats")
	}
	// After flush the first prediction at a previously-learned PC starts
	// from weakly-not-taken again, so a taken branch mispredicts.
	if bp.Predict(0x40, true) {
		t.Fatal("predictor retained state across Flush")
	}
}

func TestPrefetcherHelpsSequentialStreams(t *testing.T) {
	// Sequential sweep over 4x the cache: without prefetch every line
	// misses; with next-line prefetch roughly half the demand misses go
	// away (each miss pulls the next line in).
	plain := MustCache("p", 1<<10, 2, 64)
	pref := MustCache("q", 1<<10, 2, 64)
	pref.EnablePrefetcher()
	for addr := uint64(0); addr < 4<<10; addr += 64 {
		plain.Access(addr)
		pref.Access(addr)
	}
	if pref.Misses >= plain.Misses {
		t.Fatalf("prefetcher did not reduce sequential misses: %d vs %d",
			pref.Misses, plain.Misses)
	}
	if pref.Prefetches == 0 || pref.PrefetchMisses == 0 {
		t.Fatal("prefetcher issued no requests")
	}
	if pref.PrefetchUseful == 0 {
		t.Fatal("no prefetch was ever useful on a sequential stream")
	}
}

func TestPrefetcherNeutralOnRandomAccess(t *testing.T) {
	// Random far-apart accesses: prefetched next-lines are never used.
	src := rng.New(7)
	pref := MustCache("q", 1<<10, 2, 64)
	pref.EnablePrefetcher()
	for i := 0; i < 2000; i++ {
		pref.Access(uint64(src.Intn(1<<26)) &^ 63)
	}
	if pref.PrefetchUseful > pref.Prefetches/10 {
		t.Fatalf("random stream claims %d useful of %d prefetches",
			pref.PrefetchUseful, pref.Prefetches)
	}
}

// TestPrefetchUsefulAfterFlush: a prefetched line counts as useful when it
// is demanded, even if after a Flush a fill lands in the invalid slot that
// still holds the line's tag from before the flush.
func TestPrefetchUsefulAfterFlush(t *testing.T) {
	c := MustCache("f", 4*64, 4, 64) // one set, four ways
	c.EnablePrefetcher()
	c.Access(10 * 64) // fills lines 10 and 11
	c.Access(20 * 64) // fills lines 20 and 21
	c.Flush()
	c.Access(20 * 64)  // prefetches line 21 into a slot of its own
	c.Access(100 * 64) // prefetching line 101 refills the slot line 21 held
	if !c.Access(21*64) || c.PrefetchUseful != 1 {
		t.Fatalf("PrefetchUseful = %d, want 1", c.PrefetchUseful)
	}
}

func TestPrefetchStatsClearOnReset(t *testing.T) {
	c := MustCache("r", 1<<10, 2, 64)
	c.EnablePrefetcher()
	for addr := uint64(0); addr < 2048; addr += 64 {
		c.Access(addr)
	}
	c.ResetStats()
	if c.Prefetches != 0 || c.PrefetchMisses != 0 || c.PrefetchUseful != 0 {
		t.Fatal("ResetStats kept prefetch counters")
	}
	c.Flush()
	if c.Access(0) {
		t.Fatal("Flush kept contents")
	}
}

// TestCacheMatchesReference drives Cache and the reference model in
// cache_ref_test.go with the same seeded address streams, Flush and
// ResetStats calls included, and requires every Access result and every
// statistic to agree, on degenerate geometries and on every cache and TLB
// of DefaultConfig, with the prefetcher on and off.
func TestCacheMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	geoms := []struct {
		name             string
		size, ways, line int
	}{
		{name: "1set", size: 8 * 64, ways: 8, line: 64},
		{name: "1way", size: 1 << 10, ways: 1, line: 64},
		{name: "1set1way", size: 64, ways: 1, line: 64},
		{name: "L1I", size: cfg.L1ISize, ways: cfg.L1IWays, line: cfg.LineSize},
		{name: "L1D", size: cfg.L1DSize, ways: cfg.L1DWays, line: cfg.LineSize},
		{name: "L2", size: cfg.L2Size, ways: cfg.L2Ways, line: cfg.LineSize},
		{name: "LLC", size: cfg.LLCSize, ways: cfg.LLCWays, line: cfg.LineSize},
		// A TLB is a one-set cache of one-byte lines indexed by page number.
		{name: "iTLB", size: cfg.ITLBEntries, ways: cfg.ITLBEntries, line: 1},
		{name: "dTLB", size: cfg.DTLBEntries, ways: cfg.DTLBEntries, line: 1},
	}
	seed := uint64(0)
	for _, g := range geoms {
		for _, pf := range []bool{false, true} {
			seed++
			src := rng.New(seed)
			t.Run(fmt.Sprintf("%s/prefetch=%v", g.name, pf), func(t *testing.T) {
				got := MustCache(g.name, g.size, g.ways, g.line)
				want, err := newRefCache(g.name, g.size, g.ways, g.line)
				if err != nil {
					t.Fatal(err)
				}
				if pf {
					got.EnablePrefetcher()
					want.EnablePrefetcher()
				}
				stream := newAddrStream(src, uint64(g.size))
				for op := 0; op < 200_000; op++ {
					switch r := src.Intn(10_000); {
					case r == 0:
						got.Flush()
						want.Flush()
					case r < 5:
						got.ResetStats()
						want.ResetStats()
					default:
						addr := stream.next()
						if h, w := got.Access(addr), want.Access(addr); h != w {
							t.Fatalf("op %d: Access(%#x) = %v, reference %v", op, addr, h, w)
						}
					}
					if a, b := cacheStats(got), refStats(want); a != b {
						t.Fatalf("op %d: stats %+v, reference %+v", op, a, b)
					}
				}
				if got.Accesses == 0 || got.Misses == 0 || (pf && got.PrefetchUseful == 0) {
					t.Fatalf("stream exercised too little: %+v", cacheStats(got))
				}
			})
		}
	}
}

type stats struct {
	Accesses, Misses, Prefetches, PrefetchMisses, PrefetchUseful uint64
}

func cacheStats(c *Cache) stats {
	return stats{c.Accesses, c.Misses, c.Prefetches, c.PrefetchMisses, c.PrefetchUseful}
}

func refStats(c *refCache) stats {
	return stats{c.Accesses, c.Misses, c.Prefetches, c.PrefetchMisses, c.PrefetchUseful}
}

// addrStream mixes the access patterns the simulator produces: sequential
// walks, random accesses over a few times the cache's reach, re-accesses
// of recent addresses, and now and then the top of the address space,
// where with one-byte lines the next line wraps to line 0.
type addrStream struct {
	src    *rng.Source
	region uint64
	pos    uint64
	recent [16]uint64
	n      int
}

func newAddrStream(src *rng.Source, reach uint64) *addrStream {
	return &addrStream{src: src, region: 4 * reach}
}

func (s *addrStream) next() uint64 {
	var a uint64
	switch r := s.src.Intn(100); {
	case r < 40:
		s.pos = (s.pos + uint64(8<<s.src.Intn(4))) % s.region
		a = s.pos
	case r < 70:
		a = uint64(s.src.Int63()) % s.region
	case r < 95:
		a = s.recent[s.src.Intn(len(s.recent))]
	case r < 99:
		a = uint64(s.src.Int63()) % (s.region / 16)
	default:
		a = ^uint64(0) - uint64(s.src.Intn(256))
	}
	s.recent[s.n%len(s.recent)] = a
	s.n++
	return a
}
