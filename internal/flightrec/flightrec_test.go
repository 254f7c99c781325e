package flightrec

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(cfg)
}

func TestRecorderRingAndDump(t *testing.T) {
	dir := t.TempDir()
	r := testRecorder(t, Config{Dir: dir})
	r.RecordEvent(obs.Event{Type: "window", Window: 4})
	r.RecordEvent(obs.Event{Type: "alarm", Window: 5})
	for i := 0; i < eventDepth-1; i++ {
		r.RecordEvent(obs.Event{Type: "drift", Window: 5}) // the last evicts "window"
	}

	path, err := r.Dump("alarm")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "incident-0001-alarm.json"); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Reason != "alarm" || inc.Seq != 1 || inc.TimeUnixMS == 0 {
		t.Fatalf("incident header = %+v", inc)
	}
	if len(inc.Events) != eventDepth || inc.Events[0].Type != "alarm" ||
		inc.Events[eventDepth-1].Type != "drift" {
		t.Fatalf("events = %+v", inc.Events)
	}
	if inc.Build == nil || inc.Build.GoVersion == "" {
		t.Fatal("build info missing from incident")
	}
}

func TestTryDumpCooldownAndCap(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r := New(Config{Dir: dir, Registry: reg})
	if p := r.TryDump("alarm"); p == "" {
		t.Fatal("first dump suppressed")
	}
	if p := r.TryDump("alarm"); p != "" {
		t.Fatalf("cooldown did not suppress: %q", p)
	}
	if got := reg.Counter(SuppressedMetric).Value(); got != 1 {
		t.Errorf("suppressed counter = %d, want 1", got)
	}

	// Past the cooldown every time, the lifetime cap still binds.
	r2 := New(Config{Dir: t.TempDir(), Registry: obs.NewRegistry()})
	for i := 0; i < maxIncidents; i++ {
		r2.lastDump = r2.lastDump.Add(-dumpCooldown)
		if p := r2.TryDump("a"); p == "" {
			t.Fatalf("dump %d of %d suppressed", i+1, maxIncidents)
		}
	}
	r2.lastDump = r2.lastDump.Add(-dumpCooldown)
	if p := r2.TryDump("over-cap"); p != "" {
		t.Fatalf("cap did not suppress: %q", p)
	}
}

func TestDumpWithoutDir(t *testing.T) {
	r := New(Config{Registry: obs.NewRegistry()})
	if _, err := r.Dump("alarm"); err == nil {
		t.Fatal("dump without a directory did not error")
	}
	if p := r.TryDump("alarm"); p != "" {
		t.Fatalf("TryDump without a directory wrote %q", p)
	}
}

func TestNilRecorderInert(t *testing.T) {
	var r *Recorder
	r.RecordEvent(obs.Event{Type: "alarm"})
	if p := r.TryDump("alarm"); p != "" {
		t.Fatal("nil recorder dumped")
	}
	if _, err := r.Dump("alarm"); err == nil {
		t.Fatal("nil recorder Dump did not error")
	}
	if snap := r.Snapshot(); len(snap.Events) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
	r.Watch(context.Background(), nil) // returns immediately
	r.DumpOnPanic()                    // no-op when not panicking
}

func TestWatchDumpsOnTrigger(t *testing.T) {
	dir := t.TempDir()
	bus := obs.NewBus()
	r := testRecorder(t, Config{Dir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Watch(ctx, bus, "alarm")
	}()
	// Wait for the subscription before publishing.
	deadline := time.After(2 * time.Second)
	for !bus.Active() {
		select {
		case <-deadline:
			t.Fatal("watcher never subscribed")
		case <-time.After(time.Millisecond):
		}
	}
	bus.Publish(obs.Event{Type: "window", Window: 1})
	bus.Publish(obs.Event{Type: "alarm", Sample: "rootkit_001", Window: 2})
	var files []string
	deadline = time.After(2 * time.Second)
	for len(files) == 0 {
		select {
		case <-deadline:
			t.Fatal("no incident written for alarm event")
		case <-time.After(5 * time.Millisecond):
			files, _ = filepath.Glob(filepath.Join(dir, "incident-*.json"))
		}
	}
	if !strings.Contains(files[0], "-alarm.json") {
		t.Fatalf("incident file = %v", files)
	}
	var inc Incident
	data, _ := os.ReadFile(files[0])
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	// The watcher records events into the ring before dumping, so the
	// non-trigger "window" event is in the incident too.
	if len(inc.Events) < 2 || inc.Events[0].Type != "window" || inc.Events[1].Type != "alarm" {
		t.Fatalf("incident events = %+v", inc.Events)
	}
	cancel()
	<-done
}

func TestDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	r := testRecorder(t, Config{Dir: dir})
	r.RecordEvent(obs.Event{Type: "alarm", Window: 7})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DumpOnPanic swallowed the panic")
			}
		}()
		defer r.DumpOnPanic()
		panic("kernel took the counters away")
	}()
	files, _ := filepath.Glob(filepath.Join(dir, "incident-*-panic.json"))
	if len(files) != 1 {
		t.Fatalf("panic incidents = %v", files)
	}
	var inc Incident
	data, _ := os.ReadFile(files[0])
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inc.Stack, "kernel took the counters away") ||
		!strings.Contains(inc.Stack, "goroutine") {
		t.Fatalf("panic stack missing: %q", inc.Stack)
	}
	if len(inc.Events) != 1 || inc.Events[0].Window != 7 {
		t.Fatalf("panic incident events = %+v", inc.Events)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"alarm":                  "alarm",
		"alert-FPR High!":        "alert-fpr-high-",
		"":                       "incident",
		"a/b\\c..d":              "a-b-c--d",
		strings.Repeat("x", 100): strings.Repeat("x", 48),
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestManifestEmbedded(t *testing.T) {
	m := obs.NewManifest("hpcmal", "serve")
	m.Config["model"] = "bayes"
	r := testRecorder(t, Config{Manifest: m})
	path, err := r.Dump("alarm")
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Manifest == nil || inc.Manifest.Command != "serve" || inc.Manifest.Config["model"] != "bayes" {
		t.Fatalf("manifest = %+v", inc.Manifest)
	}
}

// TestHistoryHook pins the pre-trigger-history contract: when
// Config.History is wired (serve points it at the tsdb store), its
// payload is embedded in both dumps and snapshots; without it the
// history field is absent from the JSON entirely.
func TestHistoryHook(t *testing.T) {
	r := testRecorder(t, Config{History: func() any {
		return map[string]any{"from_ms": 1000, "series": map[string]any{"quality.f1": []float64{0.9, 0.8}}}
	}})
	path, err := r.Dump("alarm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatal(err)
	}
	h, ok := inc.History.(map[string]any)
	if !ok || h["from_ms"] != float64(1000) {
		t.Fatalf("dump history = %#v", inc.History)
	}
	if snap := r.Snapshot(); snap.History == nil {
		t.Fatal("snapshot missing history")
	}

	// No hook: the field is omitted, not null.
	bare := testRecorder(t, Config{})
	p2, err := bare.Dump("alarm")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"history"`) {
		t.Fatalf("unwired history serialized: %s", raw)
	}
}
