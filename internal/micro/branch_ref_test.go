package micro

// refPredict is the reference for BranchPredictor.Predict: Predict as it
// was written with branches, stepping the 2-bit counter and shifting the
// outcome into the history by if statements. The differential test
// drives it and Predict on twin predictors with the same streams and
// requires every result, statistic and bit of learned state to match.
func refPredict(b *BranchPredictor, pc uint64, taken bool) bool {
	b.Branches++
	idx := (pc ^ b.history) & ((1 << b.histBits) - 1)
	ctr := b.counters[idx]
	predictedTaken := ctr >= 2

	correct := predictedTaken == taken
	if !correct {
		b.Mispredicted++
	}
	// Update 2-bit counter.
	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
	// Update global history.
	b.history = (b.history << 1) & ((1 << b.histBits) - 1)
	if taken {
		b.history |= 1
	}

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
