package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 for user space on every architecture Go targets.
const clockTicks = 100

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in bytes from the
// contents of /proc/<pid>/status.
func parseVmHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// parseSteal returns the steal time and the total of the times in the
// aggregate "cpu" line of /proc/stat's contents, in clock ticks. Steal is
// time a hypervisor ran something else while this machine's CPUs had
// work; on a shared host it slows every workload alike.
func parseSteal(b []byte) (steal, total int64, err error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// user nice system idle iowait irq softirq steal
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("stat: malformed cpu line %q", line)
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// machineSteal reads parseSteal's counts from /proc/stat.
func machineSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseSteal(b)
}

// procCPU reads the CPU time process pid has used ("self" for this one).
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakMiB reads the peak resident set size of process pid in MiB.
func procPeakMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	v, err := parseVmHWM(b)
	return float64(v) / (1 << 20), err
}

// selfCPU is this process's user+system CPU time at microsecond
// resolution, finer than the clock ticks of /proc/self/stat.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCounters reads this process's completed GC cycles and cumulative
// heap allocation in bytes.
func gcCounters() (cycles, allocBytes float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// provenance describes the machine and build a result was measured on.
// Everything comes from /proc, /sys and the runtime; a file that is
// missing (no cpufreq in a VM, no .git in an exported checkout) reads
// as "unknown" rather than failing the run.
func provenance() []string {
	return []string{
		"cpu: " + cpuModel(),
		fmt.Sprintf("nproc: %d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs: %d", runtime.GOMAXPROCS(0)),
		"governor: " + readTrim("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		"go: " + runtime.Version(),
		"commit: " + gitCommit(),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(bytes.TrimSpace(b)) == 0 {
		return "unknown"
	}
	return string(bytes.TrimSpace(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git.
func gitCommit() string {
	head := readTrim(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrim(filepath.Join(".git", ref))
	}
	return head
}
