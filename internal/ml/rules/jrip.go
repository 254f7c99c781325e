// Package rules implements a RIPPER-style rule learner (WEKA's JRip):
// classes are processed from rarest to most frequent; for each class an
// IREP loop grows rules condition-by-condition via FOIL information gain,
// prunes them on a held-out third, and stops when pruned-rule accuracy
// falls below chance. The most frequent class becomes the default rule.
//
// The paper highlights JRip as one of the best accuracy-per-area
// classifiers in hardware: its model is a short chain of threshold
// comparisons.
package rules

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ml"
	"repro/internal/rng"
)

// Condition is one threshold literal in a rule: feature attr compared to
// thr with <= (OpLE) or > (OpGT).
type Condition struct {
	Attr int
	Op   byte // 'l' = <=, 'g' = >
	Thr  float64
}

// Matches reports whether the condition holds for x.
func (c Condition) Matches(x []float64) bool {
	if c.Op == 'l' {
		return x[c.Attr] <= c.Thr
	}
	return x[c.Attr] > c.Thr
}

// String renders the condition.
func (c Condition) String() string {
	op := "<="
	if c.Op == 'g' {
		op = ">"
	}
	return fmt.Sprintf("a%d %s %.4g", c.Attr, op, c.Thr)
}

// Rule is a conjunction of conditions implying a label.
type Rule struct {
	Conds []Condition
	Label int
}

// Matches reports whether every condition holds.
func (r *Rule) Matches(x []float64) bool {
	for _, c := range r.Conds {
		if !c.Matches(x) {
			return false
		}
	}
	return true
}

// String renders the rule WEKA-style.
func (r *Rule) String() string {
	if len(r.Conds) == 0 {
		return fmt.Sprintf("=> class %d", r.Label)
	}
	parts := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		parts[i] = c.String()
	}
	return fmt.Sprintf("(%s) => class %d", strings.Join(parts, " and "), r.Label)
}

// JRip is the RIPPER rule-list classifier.
type JRip struct {
	// MaxRulesPerClass bounds the ruleset size per class (default 16).
	MaxRulesPerClass int
	// Candidates is the number of quantile thresholds evaluated per
	// attribute when growing a condition (default 16).
	Candidates int
	// Seed controls grow/prune splitting.
	Seed uint64

	rules        []Rule
	defaultLabel int
	dim          int
	numClasses   int
	trained      bool
}

// New returns a JRip with defaults.
func New() *JRip { return &JRip{MaxRulesPerClass: 16, Candidates: 16, Seed: 1} }

// Name implements ml.Classifier.
func (j *JRip) Name() string { return "JRip" }

// Train implements ml.Classifier.
func (j *JRip) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	j.dim, j.numClasses = dim, numClasses
	if j.MaxRulesPerClass <= 0 {
		j.MaxRulesPerClass = 16
	}
	if j.Candidates < 4 {
		j.Candidates = 16
	}

	// Order classes rarest first; the most frequent becomes the default.
	freq := make([]int, numClasses)
	for _, label := range y {
		freq[label]++
	}
	order := make([]int, numClasses)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] < freq[order[b]] })
	j.defaultLabel = order[numClasses-1]

	// Active instance pool; covered instances are removed as rules fire.
	active := make([]int, len(x))
	for i := range active {
		active[i] = i
	}
	src := rng.New(j.Seed)
	j.rules = nil

	for _, class := range order[:numClasses-1] {
		for nr := 0; nr < j.MaxRulesPerClass; nr++ {
			pos := 0
			for _, idx := range active {
				if y[idx] == class {
					pos++
				}
			}
			if pos == 0 {
				break
			}
			rule, ok := j.growPruneRule(x, y, active, class, src)
			if !ok {
				break
			}
			j.rules = append(j.rules, rule)
			// Remove covered instances (any class: rule list semantics).
			var remaining []int
			for _, idx := range active {
				if !rule.Matches(x[idx]) {
					remaining = append(remaining, idx)
				}
			}
			active = remaining
		}
	}
	j.trained = true
	return nil
}

// growPruneRule runs one IREP iteration for the target class over the
// active pool. Returns ok=false when no worthwhile rule can be built.
func (j *JRip) growPruneRule(x [][]float64, y []int, active []int, class int, src *rng.Source) (Rule, bool) {
	// 2/3 grow, 1/3 prune.
	pool := append([]int{}, active...)
	src.Shuffle(len(pool), func(i, k int) { pool[i], pool[k] = pool[k], pool[i] })
	nGrow := len(pool) * 2 / 3
	if nGrow < 1 {
		nGrow = len(pool)
	}
	growSet, pruneSet := pool[:nGrow], pool[nGrow:]

	rule := Rule{Label: class}
	covered := append([]int{}, growSet...)
	for len(rule.Conds) < 8 {
		pos, neg := countClass(y, covered, class)
		if neg == 0 || pos == 0 {
			break
		}
		cond, gain := j.bestCondition(x, y, covered, class)
		if gain <= 0 {
			break
		}
		rule.Conds = append(rule.Conds, cond)
		covered = filterMatches(x, covered, cond)
	}
	if len(rule.Conds) == 0 {
		return Rule{}, false
	}

	// Prune: drop a suffix of conditions to maximize (p-n)/(p+n) on the
	// prune set.
	bestLen, bestVal := len(rule.Conds), pruneValue(x, y, pruneSet, rule.Conds, class)
	for l := len(rule.Conds) - 1; l >= 1; l-- {
		v := pruneValue(x, y, pruneSet, rule.Conds[:l], class)
		if v >= bestVal {
			bestVal, bestLen = v, l
		}
	}
	rule.Conds = rule.Conds[:bestLen]

	// Accept only rules better than chance on the prune set (or on the
	// grow set when the prune set is empty/uninformative).
	if len(pruneSet) > 0 && bestVal < 0 {
		return Rule{}, false
	}
	if len(pruneSet) == 0 {
		p, n := ruleCover(x, y, growSet, rule.Conds, class)
		if p <= n {
			return Rule{}, false
		}
	}
	return rule, true
}

// bestCondition finds the literal with the highest FOIL gain over the
// covered grow-set rows. For each attribute it sorts the covered values
// and, beside them, the target class's values; a literal's (p, n) are
// then two binary searches. sort.Float64s puts NaNs first, and a NaN
// matches neither <= nor >, so the searches start past them.
func (j *JRip) bestCondition(x [][]float64, y []int, covered []int, class int) (Condition, float64) {
	p0, n0 := countClass(y, covered, class)
	base := math.Log2(float64(p0) / float64(p0+n0))
	dim := len(x[0])
	var best Condition
	bestGain := 0.0

	vals := make([]float64, 0, len(covered))
	pos := make([]float64, 0, p0)
	for a := 0; a < dim; a++ {
		vals, pos = vals[:0], pos[:0]
		for _, idx := range covered {
			v := x[idx][a]
			vals = append(vals, v)
			if y[idx] == class {
				pos = append(pos, v)
			}
		}
		sort.Float64s(vals)
		sort.Float64s(pos)
		numV, numP := withoutNaNs(vals), withoutNaNs(pos)
		// Quantile candidate thresholds.
		for q := 1; q < j.Candidates; q++ {
			thr := vals[q*len(vals)/j.Candidates]
			if math.IsNaN(thr) {
				continue // no row is <= or > NaN: p == 0 for both operators
			}
			le, leP := countLE(numV, thr), countLE(numP, thr)
			for _, op := range []byte{'l', 'g'} {
				p, all := leP, le
				if op == 'g' {
					p, all = len(numP)-leP, len(numV)-le
				}
				n := all - p
				if p == 0 {
					continue
				}
				gain := float64(p) * (math.Log2(float64(p)/float64(p+n)) - base)
				if gain > bestGain {
					bestGain = gain
					best = Condition{Attr: a, Op: op, Thr: thr}
				}
			}
		}
	}
	return best, bestGain
}

// withoutNaNs returns s past its leading NaNs; s is sorted by
// sort.Float64s, which puts every NaN first.
func withoutNaNs(s []float64) []float64 {
	i := 0
	for i < len(s) && math.IsNaN(s[i]) {
		i++
	}
	return s[i:]
}

// countLE returns how many values of the sorted, NaN-free s are <= v.
func countLE(s []float64, v float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func countClass(y []int, rows []int, class int) (pos, neg int) {
	for _, idx := range rows {
		if y[idx] == class {
			pos++
		} else {
			neg++
		}
	}
	return pos, neg
}

func filterMatches(x [][]float64, rows []int, c Condition) []int {
	var out []int
	for _, idx := range rows {
		if c.Matches(x[idx]) {
			out = append(out, idx)
		}
	}
	return out
}

func ruleCover(x [][]float64, y []int, rows []int, conds []Condition, class int) (p, n int) {
	r := Rule{Conds: conds, Label: class}
	for _, idx := range rows {
		if r.Matches(x[idx]) {
			if y[idx] == class {
				p++
			} else {
				n++
			}
		}
	}
	return p, n
}

// pruneValue is RIPPER's pruning metric (p-n)/(p+n); rules covering
// nothing score -1 (worse than chance) so they get pruned away.
func pruneValue(x [][]float64, y []int, rows []int, conds []Condition, class int) float64 {
	p, n := ruleCover(x, y, rows, conds, class)
	if p+n == 0 {
		return -1
	}
	return float64(p-n) / float64(p+n)
}

// Predict implements ml.Classifier.
func (j *JRip) Predict(features []float64) int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	for i := range j.rules {
		if j.rules[i].Matches(features) {
			return j.rules[i].Label
		}
	}
	return j.defaultLabel
}

// Rules returns the learned rule list (excluding the default rule).
func (j *JRip) Rules() []Rule {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.rules
}

// DefaultLabel returns the default (fall-through) class.
func (j *JRip) DefaultLabel() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.defaultLabel
}

// Dim implements ml.Model.
func (j *JRip) Dim() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.dim
}

// NumClasses implements ml.Model.
func (j *JRip) NumClasses() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.numClasses
}

// NumConditions returns the total number of threshold literals across all
// rules; the hardware model sizes the comparator bank from it.
func (j *JRip) NumConditions() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	n := 0
	for _, r := range j.rules {
		n += len(r.Conds)
	}
	return n
}
