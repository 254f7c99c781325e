package micro

// BranchPredictor is a gshare direction predictor with a direct-mapped BTB.
// Direction prediction XORs the global history register with the branch PC
// to index a table of 2-bit saturating counters; targets are predicted by a
// tagged BTB (a miss there is counted as a branch-load miss, matching the
// perf `branch-load-misses` event, which on Intel counts BTB/target misses
// at retirement).
type BranchPredictor struct {
	histBits uint
	history  uint64
	counters []uint8 // 2-bit saturating, init weakly-not-taken

	btbMask uint64
	btbTags []uint64
	btbOK   []bool

	// Statistics since last reset.
	Branches     uint64
	Mispredicted uint64
	BTBLookups   uint64
	BTBMisses    uint64
}

// NewBranchPredictor builds a gshare predictor with 2^histBits counters and
// a BTB with btbEntries (power of two) entries.
func NewBranchPredictor(histBits uint, btbEntries int) *BranchPredictor {
	if histBits == 0 || histBits > 24 {
		panic("micro: histBits out of range")
	}
	if btbEntries <= 0 || btbEntries&(btbEntries-1) != 0 {
		panic("micro: btbEntries must be a positive power of two")
	}
	bp := &BranchPredictor{
		histBits: histBits,
		counters: make([]uint8, 1<<histBits),
		btbMask:  uint64(btbEntries - 1),
		btbTags:  make([]uint64, btbEntries),
		btbOK:    make([]bool, btbEntries),
	}
	for i := range bp.counters {
		bp.counters[i] = 1 // weakly not-taken
	}
	return bp
}

// ctrNext[taken][ctr] is the next state of a 2-bit saturating counter.
var ctrNext = [2][4]uint8{{0, 0, 1, 2}, {1, 2, 3, 3}}

// Predict consumes one conditional branch at pc with actual outcome taken,
// updates the predictor, and reports whether the direction was predicted
// correctly. Outcomes are as random as the workload makes them, so the
// counter and history updates are table lookups and ORs, not branches.
func (b *BranchPredictor) Predict(pc uint64, taken bool) bool {
	b.Branches++
	t := b2u(taken)
	mask := uint64(1)<<b.histBits - 1
	idx := (pc ^ b.history) & mask
	ctr := b.counters[idx]
	correct := (ctr >= 2) == taken
	b.Mispredicted += b2u(!correct)
	b.counters[idx] = ctrNext[t&1][ctr&3]
	b.history = (b.history<<1 | t) & mask

	// Taken branches consult the BTB for a target.
	if taken {
		b.BTBLookups++
		slot := pc & b.btbMask
		if !b.btbOK[slot] || b.btbTags[slot] != pc {
			b.BTBMisses++
			b.btbTags[slot] = pc
			b.btbOK[slot] = true
		}
	}
	return correct
}

// MispredictRate returns Mispredicted/Branches, or 0 with no branches.
func (b *BranchPredictor) MispredictRate() float64 {
	if b.Branches == 0 {
		return 0
	}
	return float64(b.Mispredicted) / float64(b.Branches)
}

// ResetStats clears counters but keeps learned state.
func (b *BranchPredictor) ResetStats() {
	b.Branches = 0
	b.Mispredicted = 0
	b.BTBLookups = 0
	b.BTBMisses = 0
}

// Flush clears all learned state and statistics.
func (b *BranchPredictor) Flush() {
	for i := range b.counters {
		b.counters[i] = 1
	}
	for i := range b.btbOK {
		b.btbOK[i] = false
	}
	b.history = 0
	b.ResetStats()
}

// b2u returns 1 for true and 0 for false; it compiles to a flag move, so
// a counter that adds it has no branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
