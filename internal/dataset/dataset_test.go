package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyGen builds a small dataset quickly for tests.
func tinyGen(t *testing.T, perClass int, seed uint64) *Table {
	t.Helper()
	cfg := GenConfig{
		Trace: trace.Config{
			WindowsPerSample: 4,
			SimInstrPerSlice: 400,
			Multiplex:        true,
		},
		SamplesPerClass: map[workload.Class]int{},
		Seed:            seed,
	}
	for _, c := range workload.AllClasses() {
		cfg.SamplesPerClass[c] = perClass
	}
	tbl, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestGenerateShape(t *testing.T) {
	tbl := tinyGen(t, 3, 1)
	if tbl.NumAttributes() != 16 {
		t.Fatalf("attributes = %d, want 16", tbl.NumAttributes())
	}
	// 6 classes * 3 samples * 4 windows.
	if tbl.NumInstances() != 6*3*4 {
		t.Fatalf("instances = %d, want 72", tbl.NumInstances())
	}
	counts := tbl.ClassCounts()
	for _, c := range workload.AllClasses() {
		if counts[c] != 12 {
			t.Fatalf("class %v has %d rows, want 12", c, counts[c])
		}
	}
	samples := tbl.SampleCounts()
	for _, c := range workload.AllClasses() {
		if samples[c] != 3 {
			t.Fatalf("class %v has %d samples, want 3", c, samples[c])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := tinyGen(t, 2, 7)
	b := tinyGen(t, 2, 7)
	if a.NumInstances() != b.NumInstances() {
		t.Fatal("row counts differ")
	}
	for i := range a.Instances {
		for j := range a.Instances[i].Features {
			if a.Instances[i].Features[j] != b.Instances[i].Features[j] {
				t.Fatalf("row %d feature %d differs", i, j)
			}
		}
	}
}

func TestGenerateEmptyErrors(t *testing.T) {
	cfg := GenConfig{SamplesPerClass: map[workload.Class]int{}}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Generate accepted empty request")
	}
}

func TestBinaryAndClassLabels(t *testing.T) {
	tbl := tinyGen(t, 1, 2)
	bl := tbl.BinaryLabels()
	cl := tbl.ClassLabels()
	for i, in := range tbl.Instances {
		wantB := 0
		if in.Class.IsMalware() {
			wantB = 1
		}
		if bl[i] != wantB {
			t.Fatalf("row %d binary label %d, want %d", i, bl[i], wantB)
		}
		if cl[i] != int(in.Class) {
			t.Fatalf("row %d class label mismatch", i)
		}
	}
}

func TestSelectFeatures(t *testing.T) {
	tbl := tinyGen(t, 1, 3)
	sub, err := tbl.SelectFeatures([]string{"cache-misses", "branch-instructions"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumAttributes() != 2 {
		t.Fatalf("sub attributes = %d", sub.NumAttributes())
	}
	cmIdx, _ := tbl.AttributeIndex("cache-misses")
	biIdx, _ := tbl.AttributeIndex("branch-instructions")
	for i := range sub.Instances {
		if sub.Instances[i].Features[0] != tbl.Instances[i].Features[cmIdx] ||
			sub.Instances[i].Features[1] != tbl.Instances[i].Features[biIdx] {
			t.Fatalf("row %d features not projected correctly", i)
		}
	}
	if _, err := tbl.SelectFeatures([]string{"nope"}); err == nil {
		t.Fatal("SelectFeatures accepted unknown attribute")
	}
}

func TestFilterClasses(t *testing.T) {
	tbl := tinyGen(t, 2, 4)
	sub := tbl.FilterClasses(workload.Benign, workload.Worm)
	counts := sub.ClassCounts()
	if len(counts) != 2 || counts[workload.Benign] == 0 || counts[workload.Worm] == 0 {
		t.Fatalf("filter kept %v", counts)
	}
	if counts[workload.Trojan] != 0 {
		t.Fatal("filter leaked trojan rows")
	}
}

func TestSplitBySampleNoLeakage(t *testing.T) {
	tbl := tinyGen(t, 4, 5)
	train, test, err := tbl.SplitBySample(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumInstances()+test.NumInstances() != tbl.NumInstances() {
		t.Fatal("split lost rows")
	}
	trainIDs := make(map[int]bool)
	for _, in := range train.Instances {
		trainIDs[in.SampleID] = true
	}
	for _, in := range test.Instances {
		if trainIDs[in.SampleID] {
			t.Fatalf("sample %d appears in both train and test", in.SampleID)
		}
	}
	// Every class must appear on both sides.
	for _, c := range workload.AllClasses() {
		if train.ClassCounts()[c] == 0 {
			t.Fatalf("class %v missing from train", c)
		}
		if test.ClassCounts()[c] == 0 {
			t.Fatalf("class %v missing from test", c)
		}
	}
}

func TestSplitRowsStratified(t *testing.T) {
	tbl := tinyGen(t, 5, 6)
	train, test, err := tbl.SplitRows(0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumInstances()+test.NumInstances() != tbl.NumInstances() {
		t.Fatal("split lost rows")
	}
	for _, c := range workload.AllClasses() {
		tot := tbl.ClassCounts()[c]
		tr := train.ClassCounts()[c]
		frac := float64(tr) / float64(tot)
		if math.Abs(frac-0.7) > 0.1 {
			t.Fatalf("class %v train fraction %v not ~0.7", c, frac)
		}
	}
}

func TestSplitRejectsBadFraction(t *testing.T) {
	tbl := tinyGen(t, 1, 7)
	if _, _, err := tbl.SplitBySample(0, 1); err == nil {
		t.Fatal("accepted trainFrac 0")
	}
	if _, _, err := tbl.SplitRows(1, 1); err == nil {
		t.Fatal("accepted trainFrac 1")
	}
}

func TestStandardizer(t *testing.T) {
	tbl := tinyGen(t, 3, 8)
	std := FitStandardizer(tbl)
	scaled := std.Apply(tbl)
	m := scaled.FeatureMatrix()
	means := m.ColMeans()
	for j, mu := range means {
		if math.Abs(mu) > 1e-6 {
			t.Fatalf("standardized column %d mean %v", j, mu)
		}
	}
	// Original table untouched.
	if tbl.Instances[0].Features[0] == scaled.Instances[0].Features[0] &&
		tbl.Instances[1].Features[0] == scaled.Instances[1].Features[0] &&
		std.Means[0] != 0 {
		t.Fatal("Apply mutated the original table")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := tinyGen(t, 1, 9)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInstances() != tbl.NumInstances() || got.NumAttributes() != tbl.NumAttributes() {
		t.Fatal("csv round trip changed shape")
	}
	for i := range tbl.Instances {
		if got.Instances[i].Class != tbl.Instances[i].Class {
			t.Fatalf("row %d class changed", i)
		}
		for j := range tbl.Instances[i].Features {
			if got.Instances[i].Features[j] != tbl.Instances[i].Features[j] {
				t.Fatalf("row %d feature %d changed", i, j)
			}
		}
	}
}

// badCSV holds inputs ReadCSV must reject, each with what is wrong.
var badCSV = []struct{ in, what string }{
	{"", "empty csv"},
	{"a,b\n1,2\n", "csv without class column"},
	{"a,class\nxyz,benign\n", "non-numeric feature"},
	{"a,class\n1,spyware\n", "unknown class"},
}

func TestReadCSVErrors(t *testing.T) {
	for _, c := range badCSV {
		if _, err := ReadCSV(bytes.NewBufferString(c.in)); err == nil {
			t.Fatalf("accepted %s", c.what)
		}
	}
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV, the loader behind
// `hpcmal train -data`. It must never panic, and any table it accepts
// must come back from WriteCSV and ReadCSV with the same attributes and
// classes and bit-identical features (a NaN may come back as any NaN).
func FuzzReadCSV(f *testing.F) {
	for _, c := range badCSV {
		f.Add([]byte(c.in))
	}
	f.Add([]byte("a,b,c,class\nNaN,+Inf,-Inf,benign\n-0,0,1e-310,worm\n"))
	f.Add([]byte("\"x,y\",\" lead\",class\n0x1p-3,-1.5E+3,rootkit\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("writing an accepted table: %v", err)
		}
		got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.Bytes(), err)
		}
		if !slices.Equal(got.Attributes, tbl.Attributes) || got.NumInstances() != tbl.NumInstances() {
			t.Fatalf("round trip changed the header or row count: %q", buf.Bytes())
		}
		for i, in := range tbl.Instances {
			back := got.Instances[i]
			if back.Class != in.Class {
				t.Fatalf("row %d: class %v came back as %v", i, in.Class, back.Class)
			}
			for j, v := range in.Features {
				w := back.Features[j]
				if math.Float64bits(w) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("row %d feature %d: %v (%#x) came back as %v (%#x)",
						i, j, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
		}
	})
}

func TestARFFRoundTripMulticlass(t *testing.T) {
	tbl := tinyGen(t, 1, 10)
	var buf bytes.Buffer
	if err := tbl.WriteARFF(&buf, "hpc", false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInstances() != tbl.NumInstances() {
		t.Fatal("arff round trip changed rows")
	}
	for i := range tbl.Instances {
		if got.Instances[i].Class != tbl.Instances[i].Class {
			t.Fatalf("row %d class %v, want %v", i, got.Instances[i].Class, tbl.Instances[i].Class)
		}
	}
}

func TestARFFBinary(t *testing.T) {
	tbl := tinyGen(t, 1, 11)
	var buf bytes.Buffer
	if err := tbl.WriteARFF(&buf, "hpc binary", true); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("{benign,malware}")) {
		t.Fatalf("binary arff missing class domain:\n%s", s[:200])
	}
	got, err := ReadARFF(bytes.NewBufferString(s))
	if err != nil {
		t.Fatal(err)
	}
	// Binary labels must survive.
	wantMalware := 0
	for _, in := range tbl.Instances {
		if in.Class.IsMalware() {
			wantMalware++
		}
	}
	gotMalware := 0
	for _, in := range got.Instances {
		if in.Class.IsMalware() {
			gotMalware++
		}
	}
	if gotMalware != wantMalware {
		t.Fatalf("binary arff malware rows %d, want %d", gotMalware, wantMalware)
	}
}

func TestReadARFFErrors(t *testing.T) {
	if _, err := ReadARFF(bytes.NewBufferString("@RELATION x\n@ATTRIBUTE a NUMERIC\n")); err == nil {
		t.Fatal("accepted arff without data")
	}
	bad := "@RELATION x\n@ATTRIBUTE a STRING\n@DATA\n"
	if _, err := ReadARFF(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("accepted string attribute")
	}
	bad2 := "@RELATION x\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE class {benign,malware}\n@DATA\n1,2,benign\n"
	if _, err := ReadARFF(bytes.NewBufferString(bad2)); err == nil {
		t.Fatal("accepted wrong field count")
	}
}

func TestPaperGenConfigMatchesTable1(t *testing.T) {
	cfg := PaperGenConfig(1)
	total := 0
	for _, n := range cfg.SamplesPerClass {
		total += n
	}
	if total != workload.PaperTotalSamples {
		t.Fatalf("paper config total %d", total)
	}
	if cfg.Trace.WindowsPerSample != 0 {
		// DefaultConfig fills 16; PaperGenConfig uses trace.DefaultConfig
		// which sets it explicitly.
		if cfg.Trace.WindowsPerSample != 16 {
			t.Fatalf("windows per sample %d", cfg.Trace.WindowsPerSample)
		}
	}
}
