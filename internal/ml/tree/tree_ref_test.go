package tree

import (
	"math"
	"sort"
)

// refBestSplit is the reference for bestSplit: the split search as it
// was written before it sorted with slices.SortFunc, sorting each
// attribute with sort.Slice and allocating the right-hand class counts
// for every candidate threshold. It is plainly correct; the differential
// test requires the same attribute, threshold, gain and gain ratio, bit
// for bit.
func refBestSplit(x [][]float64, y []int, rows []int, numClasses, minLeaf int, useGainRatio bool, attrs []int) split {
	total := len(rows)
	parentCounts := make([]int, numClasses)
	for _, r := range rows {
		parentCounts[y[r]]++
	}
	parentH := entropy(parentCounts, total)

	best := split{}
	type pair struct {
		v     float64
		label int
	}
	pairs := make([]pair, total)
	leftCounts := make([]int, numClasses)

	if attrs == nil {
		attrs = make([]int, len(x[0]))
		for i := range attrs {
			attrs[i] = i
		}
	}
	// C4.5 requires the average gain over candidate splits to filter weak
	// attributes; we track gains to apply that on the gain-ratio path.
	var candidates []split
	for _, a := range attrs {
		for i, r := range rows {
			pairs[i] = pair{x[r][a], y[r]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		nLeft := 0
		bestAttr := split{}
		for i := 0; i < total-1; i++ {
			leftCounts[pairs[i].label]++
			nLeft++
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nRight := total - nLeft
			if nLeft < minLeaf || nRight < minLeaf {
				continue
			}
			rightCounts := make([]int, numClasses)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			hl := entropy(leftCounts, nLeft)
			hr := entropy(rightCounts, nRight)
			pl := float64(nLeft) / float64(total)
			gain := parentH - pl*hl - (1-pl)*hr
			if gain <= bestAttr.gain {
				continue
			}
			thr := (pairs[i].v + pairs[i+1].v) / 2
			si := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
			gr := gain
			if useGainRatio && si > 1e-12 {
				gr = gain / si
			}
			bestAttr = split{attr: a, thr: thr, gain: gain, gainRatio: gr, ok: true}
		}
		if bestAttr.ok {
			candidates = append(candidates, bestAttr)
		}
	}
	if len(candidates) == 0 {
		return best
	}
	if !useGainRatio {
		for _, c := range candidates {
			if !best.ok || c.gain > best.gain {
				best = c
			}
		}
		return best
	}
	// C4.5: among attributes with at least average gain, pick the best
	// gain ratio.
	avgGain := 0.0
	for _, c := range candidates {
		avgGain += c.gain
	}
	avgGain /= float64(len(candidates))
	for _, c := range candidates {
		if c.gain+1e-12 >= avgGain && (!best.ok || c.gainRatio > best.gainRatio) {
			best = c
		}
	}
	if !best.ok { // numeric edge: fall back to best gain
		for _, c := range candidates {
			if !best.ok || c.gain > best.gain {
				best = c
			}
		}
	}
	return best
}
