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

// TestBranchPredictorMatchesReference drives Predict and the branchy
// reference in branch_ref_test.go on twin predictors with the same
// seeded streams, Flush and ResetStats calls included, and requires
// every result, every statistic, the counters, the history and the BTB
// to agree, from one history bit to the Haswell table.
func TestBranchPredictorMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		src := rng.New(seed)
		histBits := []uint{1, 2, 5, 10, 14}[seed%5]
		btb := 1 << src.Intn(13)
		got, want := NewBranchPredictor(histBits, btb), NewBranchPredictor(histBits, btb)
		pcs := make([]uint64, 1+src.Intn(64))
		for i := range pcs {
			pcs[i] = uint64(src.Int63()) >> src.Intn(60)
		}
		bias := src.Float64()
		for op := 0; op < 50_000; op++ {
			switch r := src.Intn(5_000); {
			case r == 0:
				got.Flush()
				want.Flush()
			case r < 4:
				got.ResetStats()
				want.ResetStats()
			default:
				pc := pcs[src.Intn(len(pcs))]
				if src.Intn(10) == 0 {
					pc = uint64(src.Int63()) << src.Intn(2)
				}
				// Mostly biased per PC, so counters saturate both ways.
				taken := src.Bool(bias)
				if src.Intn(4) != 0 {
					taken = (pc>>3)&1 == 0
				}
				if g, w := got.Predict(pc, taken), refPredict(want, pc, taken); g != w {
					t.Fatalf("seed %d op %d: Predict(%#x, %v) = %v, reference %v", seed, op, pc, taken, g, w)
				}
			}
			if g, w := [4]uint64{got.Branches, got.Mispredicted, got.BTBLookups, got.BTBMisses},
				[4]uint64{want.Branches, want.Mispredicted, want.BTBLookups, want.BTBMisses}; g != w || got.history != want.history {
				t.Fatalf("seed %d op %d: stats %v history %#x, reference %v %#x", seed, op, g, got.history, w, want.history)
			}
		}
		if string(got.counters) != string(want.counters) || fmt.Sprint(got.btbTags, got.btbOK) != fmt.Sprint(want.btbTags, want.btbOK) {
			t.Fatalf("seed %d: learned state differs from the reference", seed)
		}
		if got.Mispredicted == 0 || got.BTBMisses == 0 {
			t.Fatalf("seed %d: stream exercised too little: %d mispredicts, %d BTB misses", seed, got.Mispredicted, got.BTBMisses)
		}
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
// geometry of DefaultConfig and HaswellConfig, with the prefetcher on and
// off.
func TestCacheMatchesReference(t *testing.T) {
	cfg, hw := DefaultConfig(), HaswellConfig()
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
		// HaswellConfig, whose L1I and L1D share one geometry: a 12-way
		// LLC of 8,192 sets and 128- and 64-way TLBs.
		{name: "haswell/L1", size: hw.L1DSize, ways: hw.L1DWays, line: hw.LineSize},
		{name: "haswell/L2", size: hw.L2Size, ways: hw.L2Ways, line: hw.LineSize},
		{name: "haswell/LLC", size: hw.LLCSize, ways: hw.LLCWays, line: hw.LineSize},
		{name: "haswell/iTLB", size: hw.ITLBEntries, ways: hw.ITLBEntries, line: 1},
		{name: "haswell/dTLB", size: hw.DTLBEntries, ways: hw.DTLBEntries, line: 1},
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

// TestCacheTopLineMatchesReference: in a cache of one-byte lines, line
// 2^64−1 equals the tag of an invalid slot, so only the slot's zero age
// tells the two apart. The top lines of the address space and the bottom
// ones, where their next-line prefetches wrap, are accessed on a fresh
// cache and after Flush, and every result and statistic must agree with
// the reference model.
func TestCacheTopLineMatchesReference(t *testing.T) {
	seed := uint64(0)
	for _, ways := range []int{1, 4, 16} {
		for _, sets := range []int{1, 4} {
			for _, pf := range []bool{false, true} {
				got := MustCache("top", sets*ways, ways, 1)
				want, err := newRefCache("top", sets*ways, ways, 1)
				if err != nil {
					t.Fatal(err)
				}
				if pf {
					got.EnablePrefetcher()
					want.EnablePrefetcher()
				}
				seed++
				src := rng.New(seed)
				top := ^uint64(0)
				// Scripted first: the top line cold, warm, beside its
				// neighbours, and cold again after Flush; then random.
				script := []uint64{top, top, top - 1, 0, top, 1, top - 2, top}
				for op := 0; op < 4_000; op++ {
					var addr uint64
					switch {
					case op == len(script) || op > len(script) && src.Intn(50) == 0:
						got.Flush()
						want.Flush()
						continue
					case op < len(script):
						addr = script[op]
					case src.Intn(2) == 0:
						addr = top - uint64(src.Intn(2*sets*ways))
					default:
						addr = uint64(src.Intn(2 * sets * ways))
					}
					if h, w := got.Access(addr), want.Access(addr); h != w {
						t.Fatalf("ways=%d sets=%d prefetch=%v op %d: Access(%#x) = %v, reference %v",
							ways, sets, pf, op, addr, h, w)
					}
					if a, b := cacheStats(got), refStats(want); a != b {
						t.Fatalf("ways=%d sets=%d prefetch=%v op %d: stats %+v, reference %+v",
							ways, sets, pf, op, a, b)
					}
				}
			}
		}
	}
}

// TestCacheInvalidSlotsBelowValid checks the ordering find relies on:
// after any stream of accesses, prefetches, ResetStats and Flush calls,
// every set's invalid slots (age 0, tag invalidTag) lie below its valid
// ones (nonzero age), so the last slot that matches a line is the
// resident one.
func TestCacheInvalidSlotsBelowValid(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		ways, sets, line := 1<<src.Intn(5), 1<<src.Intn(4), 1<<(6*src.Intn(2))
		c := MustCache("order", sets*ways*line, ways, line)
		if src.Intn(2) == 0 {
			c.EnablePrefetcher()
		}
		stream := newAddrStream(src, uint64(4*sets*ways*line))
		for op := 0; op < 2_000; op++ {
			switch src.Intn(300) {
			case 0:
				c.Flush()
			case 1:
				c.ResetStats()
			default:
				c.Access(stream.next())
			}
			for base := 0; base < len(c.ages); base += ways {
				seenValid := false
				for i := base; i < base+ways; i++ {
					valid := c.ages[i] != 0
					if !valid && (seenValid || c.tags[i] != invalidTag) {
						return false
					}
					seenValid = seenValid || valid
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
