package rules

import (
	"math"
	"sort"
)

// refBestCondition is the reference for JRip.bestCondition: the literal
// search as it was written before it read (p, n) from sorted columns. It
// scores each candidate literal by rescanning every covered row. It is
// slow and plainly correct; the differential test requires the same
// condition (attribute, operator and threshold bits) and the same gain.
func refBestCondition(j *JRip, x [][]float64, y []int, covered []int, class int) (Condition, float64) {
	p0, n0 := countClass(y, covered, class)
	base := math.Log2(float64(p0) / float64(p0+n0))
	dim := len(x[0])
	var best Condition
	bestGain := 0.0

	vals := make([]float64, 0, len(covered))
	for a := 0; a < dim; a++ {
		vals = vals[:0]
		for _, idx := range covered {
			vals = append(vals, x[idx][a])
		}
		sort.Float64s(vals)
		for q := 1; q < j.Candidates; q++ {
			thr := vals[q*len(vals)/j.Candidates]
			for _, op := range []byte{'l', 'g'} {
				cond := Condition{Attr: a, Op: op, Thr: thr}
				p, n := 0, 0
				for _, idx := range covered {
					if cond.Matches(x[idx]) {
						if y[idx] == class {
							p++
						} else {
							n++
						}
					}
				}
				if p == 0 {
					continue
				}
				gain := float64(p) * (math.Log2(float64(p)/float64(p+n)) - base)
				if gain > bestGain {
					bestGain = gain
					best = cond
				}
			}
		}
	}
	return best, bestGain
}
