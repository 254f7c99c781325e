// Package tree implements the paper's decision-tree classifiers: J48
// (C4.5 with gain-ratio splits and pessimistic-error pruning) and REPTree
// (information-gain tree with reduced-error pruning on a held-out fold),
// both over numeric attributes with binary threshold splits.
package tree

import (
	"math"
	"slices"

	"repro/internal/ml"
	"repro/internal/rng"
)

// node is one tree node. Leaves carry a label; internal nodes a binary
// threshold test (x[attr] <= thr goes left).
type node struct {
	leaf   bool
	label  int
	counts []int // training class distribution at this node
	attr   int
	thr    float64
	left   *node
	right  *node
}

func (n *node) size() int {
	if n == nil {
		return 0
	}
	return 1 + n.left.size() + n.right.size()
}

func (n *node) leaves() int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return n.left.leaves() + n.right.leaves()
}

func (n *node) depth() int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := n.left.depth(), n.right.depth()
	if l > r {
		return 1 + l
	}
	return 1 + r
}

func (n *node) predict(x []float64) int {
	for !n.leaf {
		if x[n.attr] <= n.thr {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log2(p)
		}
	}
	return h
}

// split describes the best threshold found for one attribute.
type split struct {
	attr      int
	thr       float64
	gain      float64
	gainRatio float64
	ok        bool
}

// bestSplit scans all attributes for the best binary threshold split of
// the rows (indices into x). useGainRatio selects C4.5's criterion;
// otherwise plain information gain (REPTree).
func bestSplit(x [][]float64, y []int, rows []int, numClasses, minLeaf int, useGainRatio bool, attrs []int) split {
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
	rightCounts := make([]int, numClasses)

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
		// Ordered by < alone, a NaN compares equal to everything.
		// slices.SortFunc runs the same pdqsort as sort.Slice with the
		// less func a.v < b.v (tree_ref_test.go), so the permutation,
		// ties and NaNs included, is the same.
		slices.SortFunc(pairs, func(a, b pair) int {
			if a.v < b.v {
				return -1
			}
			if a.v > b.v {
				return 1
			}
			return 0
		})
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

// grow builds a tree over rows recursively. attrSampler, when non-nil,
// returns the candidate attribute subset for each split (random-subspace
// trees); nil considers every attribute.
func grow(x [][]float64, y []int, rows []int, numClasses, minLeaf, depth, maxDepth int, useGainRatio bool, attrSampler func() []int) *node {
	counts := make([]int, numClasses)
	for _, r := range rows {
		counts[y[r]]++
	}
	label := ml.ArgMaxInt(counts)
	n := &node{leaf: true, label: label, counts: counts}
	if len(rows) < 2*minLeaf || counts[label] == len(rows) {
		return n
	}
	if maxDepth > 0 && depth >= maxDepth {
		return n
	}
	var attrs []int
	if attrSampler != nil {
		attrs = attrSampler()
	}
	sp := bestSplit(x, y, rows, numClasses, minLeaf, useGainRatio, attrs)
	if !sp.ok || sp.gain < 1e-9 {
		return n
	}
	var leftRows, rightRows []int
	for _, r := range rows {
		if x[r][sp.attr] <= sp.thr {
			leftRows = append(leftRows, r)
		} else {
			rightRows = append(rightRows, r)
		}
	}
	if len(leftRows) == 0 || len(rightRows) == 0 {
		return n
	}
	n.leaf = false
	n.attr = sp.attr
	n.thr = sp.thr
	n.left = grow(x, y, leftRows, numClasses, minLeaf, depth+1, maxDepth, useGainRatio, attrSampler)
	n.right = grow(x, y, rightRows, numClasses, minLeaf, depth+1, maxDepth, useGainRatio, attrSampler)
	return n
}

// --- J48 (C4.5) ---

// J48 is the C4.5 decision tree (WEKA's J48): gain-ratio splits,
// pessimistic-error pruning with confidence factor CF.
type J48 struct {
	// MinLeaf is the minimum instances per leaf (WEKA -M, default 2).
	MinLeaf int
	// CF is the pruning confidence factor (WEKA -C, default 0.25).
	CF float64
	// MaxDepth bounds tree depth (0 = unlimited).
	MaxDepth int

	root       *node
	dim        int
	numClasses int
	trained    bool
}

// NewJ48 returns a J48 with WEKA's default parameters.
func NewJ48() *J48 { return &J48{MinLeaf: 2, CF: 0.25} }

// Name implements ml.Classifier.
func (j *J48) Name() string { return "J48" }

// Train implements ml.Classifier.
func (j *J48) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	j.dim, j.numClasses = dim, numClasses
	if j.MinLeaf <= 0 {
		j.MinLeaf = 2
	}
	if j.CF <= 0 || j.CF > 0.5 {
		j.CF = 0.25
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	j.root = grow(x, y, rows, numClasses, j.MinLeaf, 0, j.MaxDepth, true, nil)
	j.prune(j.root)
	j.trained = true
	return nil
}

// pessimisticErrors returns the C4.5 upper-bound error estimate for a node
// with n instances and e misclassifications.
func (j *J48) pessimisticErrors(n, e int) float64 {
	return float64(e) + addErrs(float64(n), float64(e), j.CF)
}

// prune applies subtree-replacement pruning bottom-up.
func (j *J48) prune(n *node) {
	if n == nil || n.leaf {
		return
	}
	j.prune(n.left)
	j.prune(n.right)
	total := 0
	for _, c := range n.counts {
		total += c
	}
	leafErr := j.pessimisticErrors(total, total-n.counts[ml.ArgMaxInt(n.counts)])
	subErr := j.subtreeErrors(n)
	if leafErr <= subErr+0.1 {
		n.leaf = true
		n.label = ml.ArgMaxInt(n.counts)
		n.left, n.right = nil, nil
	}
}

func (j *J48) subtreeErrors(n *node) float64 {
	if n.leaf {
		total := 0
		for _, c := range n.counts {
			total += c
		}
		return j.pessimisticErrors(total, total-n.counts[n.label])
	}
	return j.subtreeErrors(n.left) + j.subtreeErrors(n.right)
}

// addErrs is C4.5's extra-error estimate: the number of additional errors
// expected at confidence CF for N instances with e observed errors
// (Quinlan's normal-approximation inverse).
func addErrs(n, e, cf float64) float64 {
	if e < 1e-9 {
		// Special case: no observed errors.
		return n * (1 - math.Pow(cf, 1/n))
	}
	if e+0.5 >= n {
		return math.Max(n-e, 0)
	}
	z := normalInverse(1 - cf)
	f := (e + 0.5) / n
	r := (f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))) / (1 + z*z/n)
	return r*n - e
}

// normalInverse approximates the standard normal quantile function
// (Acklam's rational approximation, |eps| < 1.15e-9).
func normalInverse(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("tree: normalInverse domain")
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// Predict implements ml.Classifier.
func (j *J48) Predict(features []float64) int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.root.predict(features)
}

// Size returns the number of nodes in the pruned tree.
func (j *J48) Size() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.root.size()
}

// Leaves returns the number of leaves.
func (j *J48) Leaves() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.root.leaves()
}

// Depth returns the depth of the pruned tree (0 = a single leaf); the
// hardware model derives pipeline latency from it.
func (j *J48) Depth() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.root.depth()
}

// Dim implements ml.Model.
func (j *J48) Dim() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.dim
}

// NumClasses implements ml.Model.
func (j *J48) NumClasses() int {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return j.numClasses
}

// --- REPTree ---

// REPTree is WEKA's fast tree learner: information-gain splits and
// reduced-error pruning against an internal held-out fold.
type REPTree struct {
	// MinLeaf is the minimum instances per leaf (default 2).
	MinLeaf int
	// PruneFrac is the fraction of training data held out for pruning
	// (WEKA uses one of 3 folds; default 1/3).
	PruneFrac float64
	// MaxDepth bounds depth (0 = unlimited; WEKA -L -1).
	MaxDepth int
	// Seed controls the prune-set draw.
	Seed uint64

	root       *node
	dim        int
	numClasses int
	trained    bool
}

// NewREPTree returns a REPTree with WEKA-like defaults.
func NewREPTree() *REPTree { return &REPTree{MinLeaf: 2, PruneFrac: 1.0 / 3, Seed: 1} }

// Name implements ml.Classifier.
func (r *REPTree) Name() string { return "REPTree" }

// Train implements ml.Classifier.
func (r *REPTree) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	r.dim, r.numClasses = dim, numClasses
	if r.MinLeaf <= 0 {
		r.MinLeaf = 2
	}
	if r.PruneFrac <= 0 || r.PruneFrac >= 1 {
		r.PruneFrac = 1.0 / 3
	}
	src := rng.New(r.Seed)
	perm := src.Perm(len(x))
	nPrune := int(float64(len(x)) * r.PruneFrac)
	if nPrune < 1 {
		nPrune = 1
	}
	if nPrune >= len(x) {
		nPrune = len(x) - 1
	}
	pruneRows := perm[:nPrune]
	growRows := perm[nPrune:]

	r.root = grow(x, y, growRows, numClasses, r.MinLeaf, 0, r.MaxDepth, false, nil)
	r.reducedErrorPrune(r.root, x, y, pruneRows)
	r.trained = true
	return nil
}

// reducedErrorPrune collapses subtrees whose held-out error is not better
// than a leaf's.
func (r *REPTree) reducedErrorPrune(n *node, x [][]float64, y []int, rows []int) {
	if n == nil || n.leaf {
		return
	}
	var leftRows, rightRows []int
	for _, row := range rows {
		if x[row][n.attr] <= n.thr {
			leftRows = append(leftRows, row)
		} else {
			rightRows = append(rightRows, row)
		}
	}
	r.reducedErrorPrune(n.left, x, y, leftRows)
	r.reducedErrorPrune(n.right, x, y, rightRows)

	subErr := 0
	for _, row := range rows {
		if n.predict(x[row]) != y[row] {
			subErr++
		}
	}
	leafLabel := ml.ArgMaxInt(n.counts)
	leafErr := 0
	for _, row := range rows {
		if y[row] != leafLabel {
			leafErr++
		}
	}
	if leafErr <= subErr {
		n.leaf = true
		n.label = leafLabel
		n.left, n.right = nil, nil
	}
}

// Predict implements ml.Classifier.
func (r *REPTree) Predict(features []float64) int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.predict(features)
}

// Size returns the number of nodes in the pruned tree.
func (r *REPTree) Size() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.size()
}

// Depth returns the pruned tree depth.
func (r *REPTree) Depth() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.depth()
}

// Leaves returns the number of leaves.
func (r *REPTree) Leaves() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.leaves()
}

// Dim implements ml.Model.
func (r *REPTree) Dim() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.dim
}

// NumClasses implements ml.Model.
func (r *REPTree) NumClasses() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.numClasses
}

// ExportedNode is one node of a trained tree in export form. Leaf nodes
// carry Label; internal nodes carry the split and child indices into the
// exported slice.
type ExportedNode struct {
	Leaf        bool
	Label       int
	Attr        int
	Thr         float64
	Left, Right int
}

// export flattens a tree in preorder.
func export(root *node) []ExportedNode {
	var out []ExportedNode
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(out)
		out = append(out, ExportedNode{})
		if n.leaf {
			out[idx] = ExportedNode{Leaf: true, Label: n.label}
			return idx
		}
		e := ExportedNode{Attr: n.attr, Thr: n.thr}
		e.Left = walk(n.left)
		e.Right = walk(n.right)
		out[idx] = e
		return idx
	}
	walk(root)
	return out
}

// Export returns the pruned tree in flattened preorder form (node 0 is
// the root) for hardware code generation.
func (j *J48) Export() []ExportedNode {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return export(j.root)
}

// Export returns the pruned tree in flattened preorder form (node 0 is
// the root) for hardware code generation.
func (r *REPTree) Export() []ExportedNode {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return export(r.root)
}

// --- RandomTree ---

// RandomTree is a base learner for random forests: an unpruned
// information-gain tree that considers only a random attribute subset at
// each split (Breiman's random subspace method).
type RandomTree struct {
	// K is the attribute-subset size per split; 0 means ceil(sqrt(dim)).
	K int
	// MinLeaf is the minimum instances per leaf (default 1, RF-style).
	MinLeaf int
	// MaxDepth bounds depth (0 = unlimited).
	MaxDepth int
	// Seed controls the per-split attribute draws.
	Seed uint64

	root    *node
	trained bool
}

// NewRandomTree returns a RandomTree with random-forest defaults.
func NewRandomTree() *RandomTree { return &RandomTree{MinLeaf: 1, Seed: 1} }

// Name implements ml.Classifier.
func (r *RandomTree) Name() string { return "RandomTree" }

// Train implements ml.Classifier.
func (r *RandomTree) Train(x [][]float64, y []int, numClasses int) error {
	dim, err := ml.CheckTrainingSet(x, y, numClasses)
	if err != nil {
		return err
	}
	if r.MinLeaf <= 0 {
		r.MinLeaf = 1
	}
	k := r.K
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(dim))))
	}
	if k > dim {
		k = dim
	}
	src := rng.New(r.Seed)
	sampler := func() []int {
		perm := src.Perm(dim)
		return perm[:k]
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	r.root = grow(x, y, rows, numClasses, r.MinLeaf, 0, r.MaxDepth, false, sampler)
	r.trained = true
	return nil
}

// Predict implements ml.Classifier.
func (r *RandomTree) Predict(features []float64) int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.predict(features)
}

// Size returns the node count.
func (r *RandomTree) Size() int {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return r.root.size()
}

// featureImportance accumulates sample-weighted split counts per
// attribute.
func featureImportance(n *node, dim int, out []float64) {
	if n == nil || n.leaf {
		return
	}
	total := 0
	for _, c := range n.counts {
		total += c
	}
	if n.attr >= 0 && n.attr < dim {
		out[n.attr] += float64(total)
	}
	featureImportance(n.left, dim, out)
	featureImportance(n.right, dim, out)
}

// FeatureImportance returns per-attribute importances: the number of
// training instances routed through splits on each attribute, normalized
// to sum to 1 (0 everywhere for a single-leaf tree).
func (j *J48) FeatureImportance(dim int) []float64 {
	if !j.trained {
		panic(ml.ErrNotTrained)
	}
	return normalizeImportance(j.root, dim)
}

// FeatureImportance returns per-attribute importances (see J48).
func (r *REPTree) FeatureImportance(dim int) []float64 {
	if !r.trained {
		panic(ml.ErrNotTrained)
	}
	return normalizeImportance(r.root, dim)
}

func normalizeImportance(root *node, dim int) []float64 {
	out := make([]float64, dim)
	featureImportance(root, dim, out)
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}
