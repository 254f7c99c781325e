package profile

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// ballast keeps a named allocation alive so the in-process heap profile
// used by the parser tests has a deterministic function to find.
var ballast [][]byte

//go:noinline
func allocateBallast() {
	for i := 0; i < 64; i++ {
		ballast = append(ballast, make([]byte, 64<<10))
	}
}

// TestParseHeapProfile runs the parser over a real runtime/pprof heap
// profile: the summary must rank by inuse_space and find the ballast
// allocator among the top functions.
func TestParseHeapProfile(t *testing.T) {
	ballast = nil
	allocateBallast()
	defer func() { ballast = nil }()
	// A heap profile reports in-use bytes as of the last completed GC;
	// without one, a repeat run in the same process sees the previous
	// run's ballast as freed and this run's as not yet counted.
	runtime.GC()

	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sum, err := ParseSummary(buf.Bytes(), 20)
	if err != nil {
		t.Fatalf("ParseSummary: %v", err)
	}
	if sum.SampleType != "inuse_space" || sum.Unit != "bytes" {
		t.Fatalf("ranked by %s/%s, want inuse_space/bytes", sum.SampleType, sum.Unit)
	}
	if sum.Total <= 0 || sum.Samples == 0 || len(sum.Functions) == 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
	found := false
	for _, f := range sum.Functions {
		if strings.Contains(f.Name, "allocateBallast") {
			found = true
			if f.Flat <= 0 || f.FlatPct <= 0 || f.Cum < f.Flat {
				t.Fatalf("ballast stats implausible: %+v", f)
			}
		}
		if f.FlatPct < 0 || f.FlatPct > 100.0001 || f.CumPct < f.FlatPct-0.0001 {
			t.Fatalf("percent invariants violated: %+v", f)
		}
	}
	if !found {
		t.Fatalf("allocateBallast not in top functions: %+v", sum.Functions)
	}
}

// TestParseCPUProfile parses a real CPU profile blob. Sample counts
// depend on scheduler luck, so assertions on content are lenient — the
// structural claims (parses, ranked by cpu, ordered by flat desc) are
// not.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if !TryAcquireCPU() {
		t.Skip("cpu profile slot held elsewhere")
	}
	if err := pprof.StartCPUProfile(&buf); err != nil {
		ReleaseCPU()
		t.Fatal(err)
	}
	spinUntil(time.Now().Add(150 * time.Millisecond))
	pprof.StopCPUProfile()
	ReleaseCPU()

	sum, err := ParseSummary(buf.Bytes(), 10)
	if err != nil {
		t.Fatalf("ParseSummary: %v", err)
	}
	if sum.SampleType != "cpu" {
		t.Fatalf("ranked by %s, want cpu", sum.SampleType)
	}
	if sum.DurationMS <= 0 {
		t.Fatalf("duration = %v, want > 0", sum.DurationMS)
	}
	for i := 1; i < len(sum.Functions); i++ {
		if sum.Functions[i].Flat > sum.Functions[i-1].Flat {
			t.Fatalf("functions not ordered by flat desc: %+v", sum.Functions)
		}
	}
}

//go:noinline
func spinUntil(deadline time.Time) float64 {
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*1.000000001 + 0.000001
		}
	}
	return x
}

// TestParseGarbageRejected: corrupt input errors instead of panicking.
func TestParseGarbageRejected(t *testing.T) {
	for _, blob := range [][]byte{
		[]byte("not a profile at all"),
		{0x1f, 0x8b, 0xff, 0x00}, // gzip magic, garbage body
		{0x08},                   // truncated varint field
	} {
		if _, err := ParseSummary(blob, 5); err == nil {
			t.Fatalf("ParseSummary(%q) = nil error, want failure", blob)
		}
	}
}
