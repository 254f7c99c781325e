package main

import (
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime (150) and
	// stime (50) are fields 14 and 15.
	stat := "4242 (hpc mal (serve)) S 1 4242 4242 0 -1 4194560 1200 0 0 0 150 50 0 0 20 0 9 0 100 1000 200\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 hpcmal S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\thpcmal\nVmPeak:\t  812345 kB\nVmHWM:\t   95776 kB\nVmRSS:\t   90000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(95776) << 10; got != want {
		t.Errorf("parseVmHWM = %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  4161 0 52 1589 1 0 118 377 0 0\ncpu0 2000 0 26 800 0 0 59 190 0 0\n"
	steal, total, err := parseSteal([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 377 || total != 6298 {
		t.Errorf("parseSteal = %d of %d, want 377 of 6298", steal, total)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, _, err := parseSteal([]byte(bad)); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestProvenanceToleratesMissingFiles(t *testing.T) {
	// Run from the test's directory: there is no .git here, and cpufreq
	// may be absent; every line must still be present.
	lines := provenance()
	if len(lines) != 6 {
		t.Fatalf("provenance has %d lines: %q", len(lines), lines)
	}
	if lines[5] != "commit: unknown" {
		t.Errorf("commit line %q, want unknown outside a git checkout", lines[5])
	}
}
