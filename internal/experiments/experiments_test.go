package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ml/eval"
	"repro/internal/trace"
)

// testRunner returns a runner with a very small dataset for fast tests.
func testRunner() *Runner {
	return NewRunner(WithConfig(Config{
		Seed:  1,
		Scale: 0.015,
		Trace: trace.Config{WindowsPerSample: 6, SimInstrPerSlice: 500, Multiplex: true},
	}))
}

// sharedRunner caches one runner (and thus one dataset) across tests.
var sharedRunner = testRunner()

func TestIDsDispatch(t *testing.T) {
	for _, id := range IDs() {
		rep, err := sharedRunner.Run(id)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		if rep.ID != id {
			t.Fatalf("experiment %s reported id %s", id, rep.ID)
		}
		if len(rep.Rows) == 0 || len(rep.Header) == 0 {
			t.Fatalf("experiment %s produced no data", id)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatalf("rendering %s: %v", id, err)
		}
		if !strings.Contains(buf.String(), rep.Title) {
			t.Fatalf("rendering of %s missing title", id)
		}
	}
	if _, err := sharedRunner.Run("fig99"); err == nil {
		t.Fatal("accepted unknown experiment id")
	}
}

func TestTable1Shape(t *testing.T) {
	rep, err := sharedRunner.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// 6 classes + total row.
	if len(rep.Rows) != 7 {
		t.Fatalf("table1 rows %d", len(rep.Rows))
	}
	if rep.Rows[6][0] != "total" {
		t.Fatal("missing total row")
	}
}

func TestTable2Shape(t *testing.T) {
	rep, err := sharedRunner.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("table2 rows %d, want 8 ranks", len(rep.Rows))
	}
	if len(rep.Header) != 6 {
		t.Fatalf("table2 header %v", rep.Header)
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "common") {
		t.Fatal("table2 missing common-features note")
	}
}

func TestFig13CoversAllClassifiers(t *testing.T) {
	rep, err := sharedRunner.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("fig13 rows %d, want 8 classifiers", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if !strings.HasSuffix(row[1], "%") || !strings.HasSuffix(row[2], "%") || !strings.HasSuffix(row[3], "%") {
			t.Fatalf("fig13 row not percentages: %v", row)
		}
	}
}

func TestHardwareFiguresShapes(t *testing.T) {
	for _, id := range []string{"fig14", "fig15", "fig16"} {
		rep, err := sharedRunner.HardwareFigures(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 8 {
			t.Fatalf("%s rows %d", id, len(rep.Rows))
		}
	}
}

func TestFig16SortedDescending(t *testing.T) {
	rep, err := sharedRunner.HardwareFigures("fig16")
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 1e18
	for _, row := range rep.Rows {
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("bad fom cell %q", row[3])
		}
		if v > prev {
			t.Fatal("fig16 not sorted descending")
		}
		prev = v
	}
}

func TestFig17And18Multiclass(t *testing.T) {
	rep17, err := sharedRunner.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep17.Rows) != 3 {
		t.Fatalf("fig17 rows %d", len(rep17.Rows))
	}
	names := map[string]bool{}
	for _, row := range rep17.Rows {
		names[row[0]] = true
	}
	if !names["MLR"] || !names["MLP"] || !names["SVM"] {
		t.Fatalf("fig17 classifiers %v", names)
	}
	rep18, err := sharedRunner.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep18.Header) != 7 { // classifier + 6 classes
		t.Fatalf("fig18 header %v", rep18.Header)
	}
}

func TestFig19HasDelta(t *testing.T) {
	rep, err := sharedRunner.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[len(rep.Rows)-1][0] != "average" {
		t.Fatal("fig19 missing average row")
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "delta") {
		t.Fatal("fig19 missing delta note")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations regenerate datasets; skipped in -short")
	}
	for _, id := range AblationIDs() {
		rep, err := sharedRunner.RunAblation(id)
		if err != nil {
			t.Fatalf("ablation %s: %v", id, err)
		}
		if len(rep.Rows) < 2 {
			t.Fatalf("ablation %s rows %d", id, len(rep.Rows))
		}
	}
	if _, err := sharedRunner.RunAblation("ablate-nothing"); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

func TestRunnerCachesDataset(t *testing.T) {
	r := testRunner()
	a, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Dataset not cached")
	}
}

// fmtSscan parses a float cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions are slow; skipped in -short")
	}
	for _, id := range ExtensionIDs() {
		rep, err := sharedRunner.RunExtension(id)
		if err != nil {
			t.Fatalf("extension %s: %v", id, err)
		}
		if len(rep.Rows) < 2 {
			t.Fatalf("extension %s rows %d", id, len(rep.Rows))
		}
		if rep.ID != id {
			t.Fatalf("extension %s reports id %s", id, rep.ID)
		}
	}
	if _, err := sharedRunner.RunExtension("ext-nothing"); err == nil {
		t.Fatal("accepted unknown extension")
	}
}

// TestHeadlineShapes pins the paper's qualitative claims at test scale so
// regressions in any substrate (workloads, simulator, PMU, classifiers,
// hardware model) surface immediately.
func TestHeadlineShapes(t *testing.T) {
	area := func(rep *Report, name string) float64 {
		for _, row := range rep.Rows {
			if row[0] == name {
				var v float64
				if _, err := fmt.Sscanf(row[5], "%f", &v); err != nil {
					t.Fatalf("bad area cell %q", row[5])
				}
				return v
			}
		}
		t.Fatalf("classifier %s missing from report", name)
		return 0
	}
	fig14, err := sharedRunner.HardwareFigures("fig14")
	if err != nil {
		t.Fatal(err)
	}
	mlpArea := area(fig14, "MLP")
	for _, small := range []string{"OneR", "Logistic", "SVM"} {
		if area(fig14, small) >= mlpArea {
			t.Fatalf("%s area not below MLP", small)
		}
	}

	fig16, err := sharedRunner.HardwareFigures("fig16")
	if err != nil {
		t.Fatal(err)
	}
	if fig16.Rows[len(fig16.Rows)-1][0] != "MLP" && fig16.Rows[0][0] == "MLP" {
		t.Fatal("MLP wins accuracy/area; the paper's embedded argument inverted")
	}

	fig17, err := sharedRunner.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(rep *Report, name string) float64 {
		for _, row := range rep.Rows {
			if row[0] == name {
				var v float64
				fmt.Sscanf(row[1], "%f", &v)
				return v
			}
		}
		t.Fatalf("%s missing", name)
		return 0
	}
	if accOf(fig17, "MLP") < accOf(fig17, "SVM") {
		t.Fatal("MLP not ahead of SVM on multiclass; paper claim inverted")
	}
}

// TestMcNemarVerdict: the ext-ensemble note names the detector McNemar's
// test favours, including when the forest loses, as it did at scale
// 0.05, seed 5 (forest uniquely right on 1 row, J48 on 16).
func TestMcNemarVerdict(t *testing.T) {
	for _, c := range []struct {
		mn   eval.McNemarResult
		want string
	}{
		{eval.McNemarResult{BOnly: 1, COnly: 16, PValue: 0.0011}, "J48 better, significant at alpha=0.05"},
		{eval.McNemarResult{BOnly: 40, COnly: 9, PValue: 0.00001}, "RandomForest better, significant at alpha=0.05"},
		{eval.McNemarResult{BOnly: 9, COnly: 5, PValue: 0.42}, "not significant"},
		{eval.McNemarResult{BOnly: 3, COnly: 9, PValue: 0.05}, "not significant"},
		{eval.McNemarResult{PValue: 1}, "not significant"},
	} {
		if got := mcnemarVerdict(&c.mn, "RandomForest", "J48"); got != c.want {
			t.Errorf("mcnemarVerdict(%+v) = %q, want %q", c.mn, got, c.want)
		}
	}
}
