package tree

import (
	"math"
	"testing"

	"repro/internal/ml/mltest"
	"repro/internal/rng"
)

func TestJ48Separable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewJ48()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.95 {
		t.Fatalf("accuracy %v, want >= 0.95", acc)
	}
}

func TestJ48SolvesXOR(t *testing.T) {
	// Axis-aligned splits handle XOR easily.
	x, y := mltest.XOR(2, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewJ48()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.9 {
		t.Fatalf("XOR accuracy %v, want >= 0.9", acc)
	}
}

func TestJ48Multiclass(t *testing.T) {
	x, y := mltest.ThreeBlobs(3, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewJ48()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.85 {
		t.Fatalf("3-class accuracy %v, want >= 0.85", acc)
	}
}

func TestJ48PruningShrinksTree(t *testing.T) {
	// Noisy labels: an unpruned tree overfits to many nodes; pessimistic
	// pruning must cut it down relative to a CF≈0.5 (barely pruned) tree.
	x, y := mltest.Blobs(4, [][]float64{{0, 0}, {1.2, 1.2}}, 300, 1.2)
	loose := &J48{MinLeaf: 2, CF: 0.5}
	tight := &J48{MinLeaf: 2, CF: 0.01}
	if err := loose.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := tight.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if tight.Size() > loose.Size() {
		t.Fatalf("CF=0.01 tree (%d nodes) larger than CF=0.5 tree (%d nodes)",
			tight.Size(), loose.Size())
	}
}

func TestJ48StructureAccessors(t *testing.T) {
	x, y := mltest.ThreeBlobs(5, 100)
	c := NewJ48()
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if c.Size() < 3 {
		t.Fatalf("tree size %d implausibly small for 3 classes", c.Size())
	}
	if c.Leaves() < 2 {
		t.Fatalf("leaves %d", c.Leaves())
	}
	if c.Depth() < 1 {
		t.Fatalf("depth %d", c.Depth())
	}
	if c.Size() != 2*c.Leaves()-1 {
		t.Fatalf("binary tree invariant violated: size %d leaves %d", c.Size(), c.Leaves())
	}
}

func TestJ48PureLeaf(t *testing.T) {
	// Single-class data: one leaf, always that class.
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{1, 1, 1, 1}
	c := NewJ48()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 || c.Predict([]float64{10}) != 1 {
		t.Fatal("pure data did not yield a single pure leaf")
	}
}

func TestREPTreeSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(1, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewREPTree()
	if err := c.Train(xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.95 {
		t.Fatalf("accuracy %v, want >= 0.95", acc)
	}
}

func TestREPTreeMulticlass(t *testing.T) {
	x, y := mltest.ThreeBlobs(2, 150)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	c := NewREPTree()
	if err := c.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(c.Predict, xte, yte); acc < 0.8 {
		t.Fatalf("3-class accuracy %v, want >= 0.8", acc)
	}
}

func TestREPTreePruningOnNoise(t *testing.T) {
	// Near-pure label noise: reduced-error pruning must leave the tree
	// substantially smaller than the unpruned tree grown on the same data.
	x, y := mltest.Blobs(6, [][]float64{{0, 0}, {0.1, 0.1}}, 200, 2.0)
	c := NewREPTree()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	unpruned := grow(x, y, rows, 2, 2, 0, 0, false, nil)
	if c.Size() >= unpruned.size()/2 {
		t.Fatalf("pruned tree %d nodes vs unpruned %d; pruning ineffective",
			c.Size(), unpruned.size())
	}
}

func TestREPTreeDeterministicWithSeed(t *testing.T) {
	x, y := mltest.ThreeBlobs(7, 100)
	a, b := NewREPTree(), NewREPTree()
	a.Seed, b.Seed = 5, 5
	if err := a.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("same seed, different trees")
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	x, y := mltest.ThreeBlobs(8, 200)
	c := &J48{MinLeaf: 2, CF: 0.25, MaxDepth: 2}
	if err := c.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if c.Depth() > 2 {
		t.Fatalf("depth %d exceeds MaxDepth 2", c.Depth())
	}
}

func TestAddErrs(t *testing.T) {
	// Zero observed errors still predict some expected errors.
	if v := addErrs(100, 0, 0.25); v <= 0 || v >= 100 {
		t.Fatalf("addErrs(100,0) = %v", v)
	}
	// More confidence (smaller CF) means a larger error estimate.
	if addErrs(100, 5, 0.1) <= addErrs(100, 5, 0.4) {
		t.Fatal("addErrs not monotone in CF")
	}
	// Extreme e: bounded by n-e.
	if v := addErrs(10, 10, 0.25); v != 0 {
		t.Fatalf("addErrs(10,10) = %v, want 0", v)
	}
}

func TestNormalInverse(t *testing.T) {
	// Known quantiles.
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}, {0.84134, 0.99998},
	}
	for _, tc := range cases {
		if got := normalInverse(tc.p); math.Abs(got-tc.want) > 1e-3 {
			t.Fatalf("normalInverse(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTreesPanicUntrained(t *testing.T) {
	for _, f := range []func(){
		func() { NewJ48().Predict([]float64{1}) },
		func() { NewREPTree().Predict([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic before Train")
				}
			}()
			f()
		}()
	}
}

func TestTreesRejectBadInput(t *testing.T) {
	if err := NewJ48().Train(nil, nil, 2); err == nil {
		t.Fatal("J48 accepted empty set")
	}
	if err := NewREPTree().Train([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Fatal("REPTree accepted numClasses 1")
	}
}

func TestFeatureImportance(t *testing.T) {
	// Attribute 1 carries all the signal; attribute 0 is noise.
	x, y := mltest.Blobs(11, [][]float64{{0, 0}, {0, 8}}, 150, 0.5)
	c := NewJ48()
	if err := c.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	imp := c.FeatureImportance(2)
	if imp[1] <= imp[0] {
		t.Fatalf("importance %v does not favor the informative attribute", imp)
	}
	sum := imp[0] + imp[1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importances sum to %v", sum)
	}
	// Pure data: single leaf, all-zero importance.
	pure := NewJ48()
	if err := pure.Train([][]float64{{1}, {2}, {3}, {4}}, []int{1, 1, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	pimp := pure.FeatureImportance(1)
	if pimp[0] != 0 {
		t.Fatalf("single-leaf importance %v", pimp)
	}
}

func TestExportRoundTrip(t *testing.T) {
	x, y := mltest.ThreeBlobs(12, 150)
	for _, m := range []interface {
		Train([][]float64, []int, int) error
		Predict([]float64) int
		Export() []ExportedNode
	}{NewJ48(), NewREPTree()} {
		if err := m.Train(x, y, 3); err != nil {
			t.Fatal(err)
		}
		nodes := m.Export()
		if len(nodes) == 0 {
			t.Fatal("empty export")
		}
		// Re-implement prediction over the exported form and compare.
		predict := func(row []float64) int {
			i := 0
			for !nodes[i].Leaf {
				if row[nodes[i].Attr] <= nodes[i].Thr {
					i = nodes[i].Left
				} else {
					i = nodes[i].Right
				}
			}
			return nodes[i].Label
		}
		for _, row := range x[:50] {
			if predict(row) != m.Predict(row) {
				t.Fatal("exported tree disagrees with model")
			}
		}
	}
}

func TestREPTreeAccessors(t *testing.T) {
	x, y := mltest.ThreeBlobs(13, 150)
	r := NewREPTree()
	if err := r.Train(x, y, 3); err != nil {
		t.Fatal(err)
	}
	if r.Name() != "REPTree" {
		t.Fatal("name wrong")
	}
	if r.Size() != 2*r.Leaves()-1 {
		t.Fatalf("binary invariant: size %d leaves %d", r.Size(), r.Leaves())
	}
	if r.Depth() < 1 {
		t.Fatalf("depth %d", r.Depth())
	}
	j := NewJ48()
	if j.Name() != "J48" {
		t.Fatal("J48 name wrong")
	}
}

func TestRandomTreeInPackage(t *testing.T) {
	x, y := mltest.ThreeBlobs(14, 200)
	xtr, ytr, xte, yte := mltest.SplitHalf(x, y)
	rt := NewRandomTree()
	if rt.Name() != "RandomTree" {
		t.Fatal("name wrong")
	}
	if err := rt.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(rt.Predict, xte, yte); acc < 0.75 {
		t.Fatalf("random tree accuracy %v", acc)
	}
	if rt.Size() < 3 {
		t.Fatalf("size %d", rt.Size())
	}
	// K clamps to dim.
	big := &RandomTree{K: 99, MinLeaf: 1, Seed: 2}
	if err := big.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	// Max depth respected.
	shallow := &RandomTree{MaxDepth: 2, MinLeaf: 1, Seed: 3}
	if err := shallow.Train(xtr, ytr, 3); err != nil {
		t.Fatal(err)
	}
	// Untrained panics.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic before Train")
		}
	}()
	NewRandomTree().Predict([]float64{1})
}

func TestREPTreeFeatureImportance(t *testing.T) {
	x, y := mltest.Blobs(15, [][]float64{{0, 0}, {0, 8}}, 150, 0.5)
	r := NewREPTree()
	if err := r.Train(x, y, 2); err != nil {
		t.Fatal(err)
	}
	imp := r.FeatureImportance(2)
	if imp[1] <= imp[0] {
		t.Fatalf("REPTree importance %v", imp)
	}
}

// TestBestSplitMatchesReference runs the split search and the sort.Slice
// reference in tree_ref_test.go on random row sets of tables full of
// ties, NaN, +-Inf and -0, for both criteria and for attribute subsets,
// and requires the same attribute, threshold, gain and gain ratio, bit
// for bit.
func TestBestSplitMatchesReference(t *testing.T) {
	src := rng.New(19)
	for trial := 0; trial < 400; trial++ {
		dim, k := 1+src.Intn(16), 2+src.Intn(5)
		x, y := mltest.Tricky(src, 1+src.Intn(150), dim, k)
		rows := src.Perm(len(x))[:1+src.Intn(len(x))]
		minLeaf, gainRatio := 1+src.Intn(4), trial%2 == 0
		var attrs []int
		if trial%3 == 0 {
			attrs = src.Perm(dim)[:1+src.Intn(dim)]
		}
		got := bestSplit(x, y, rows, k, minLeaf, gainRatio, attrs)
		want := refBestSplit(x, y, rows, k, minLeaf, gainRatio, attrs)
		if got.ok != want.ok || got.attr != want.attr ||
			math.Float64bits(got.thr) != math.Float64bits(want.thr) ||
			math.Float64bits(got.gain) != math.Float64bits(want.gain) ||
			math.Float64bits(got.gainRatio) != math.Float64bits(want.gainRatio) {
			t.Fatalf("trial %d: got %+v, reference %+v", trial, got, want)
		}
	}
}
