package profile

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testProfiler(t *testing.T, mutate func(*Config)) *Profiler {
	t.Helper()
	cfg := Config{
		Interval: 50 * time.Millisecond,
		Duty:     5 * time.Millisecond,
		Registry: obs.NewRegistry(),
		Bus:      obs.NewBus(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

// TestCycleNowStoresAllTypes: one synchronous cycle yields a CPU capture
// plus every configured snapshot, all retrievable through List/Get/Latest.
func TestCycleNowStoresAllTypes(t *testing.T) {
	p := testProfiler(t, nil)
	p.CycleNow("")

	want := []string{TypeCPU, TypeHeap, TypeGoroutine}
	all := p.List("", "", 0)
	if len(all) != len(want) {
		t.Fatalf("captures = %+v, want %d types", all, len(want))
	}
	for _, typ := range want {
		info, ok := p.Latest(typ)
		if !ok {
			t.Fatalf("no %s capture after CycleNow", typ)
		}
		if info.Trigger != TriggerInterval || info.Pinned {
			t.Fatalf("%s capture = %+v, want unpinned interval", typ, info)
		}
		got, blob, ok := p.Get(info.ID)
		if !ok || got.ID != info.ID || len(blob) == 0 || len(blob) != info.SizeBytes {
			t.Fatalf("Get(%s) = %+v ok=%v len=%d", info.ID, got, ok, len(blob))
		}
	}
	// Snapshot types parse eagerly: heap must carry a summary.
	if info, _ := p.Latest(TypeHeap); info.Summary == nil || info.Summary.SampleType != "inuse_space" {
		t.Fatalf("heap summary = %+v, want parsed inuse_space", info.Summary)
	}

	s := p.Stats()
	if s.Captures != int64(len(want)) || s.RingCaptures != len(want) || s.RingBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.ByCause) == 0 {
		t.Fatalf("stats.ByCause empty after captures")
	}
	for _, c := range s.ByCause {
		if c.Trigger != TriggerInterval || c.Count != 1 {
			t.Fatalf("by_cause cell = %+v, want one interval capture per type", c)
		}
	}
}

// TestBusEventTriggersPinnedCapture: an "alert" event on the bus makes
// the running sampler take an immediate capture pinned against eviction
// and attributed to the alert.
func TestBusEventTriggersPinnedCapture(t *testing.T) {
	bus := obs.NewBus()
	p := testProfiler(t, func(c *Config) {
		c.Interval = time.Hour // only the trigger path can produce extra captures
		c.Duty = 5 * time.Millisecond
		c.Bus = bus
	})
	stop := p.Start()
	defer stop()

	// Wait out the immediate first cycle so the trigger's captures are
	// distinguishable.
	waitFor(t, func() bool { return p.Stats().Captures >= int64(1+len(snapshotTypes)) })

	bus.Publish(obs.Event{Type: "alert", Msg: "rule fired"})
	// The triggered cycle stores one capture per configured type; wait for
	// all of them, or the last ones land after `before` is read below.
	waitFor(t, func() bool { return len(p.List("", "alert", 0)) == 1+len(snapshotTypes) })

	info, ok := p.Latest(TypeCPU)
	if !ok {
		t.Fatal("no cpu capture after alert")
	}
	if info.Trigger != "alert" || !info.Pinned {
		t.Fatalf("cpu capture = %+v, want pinned alert-triggered", info)
	}
	// Unrelated event types must not trigger.
	before := p.Stats().Captures
	bus.Publish(obs.Event{Type: "window"})
	time.Sleep(30 * time.Millisecond)
	if got := p.Stats().Captures; got != before {
		t.Fatalf("captures %d -> %d after non-trigger event", before, got)
	}
}

// TestTriggeredWindowKeepsItsReason: a trigger landing while a triggered
// CPU window is in flight gets its own cycle instead of relabelling that
// window, so an alarm storm cannot take an alert's CPU capture.
func TestTriggeredWindowKeepsItsReason(t *testing.T) {
	p := testProfiler(t, func(c *Config) {
		c.Interval = time.Hour
		c.Duty = 300 * time.Millisecond
	})
	stop := p.Start()
	defer stop()
	waitFor(t, func() bool { return p.Stats().Captures >= int64(1+len(snapshotTypes)) })

	p.TriggerCapture("alert")
	// The run loop has popped the alert: its CPU window is starting.
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.pending) == 0
	})
	p.TriggerCapture("alarm")
	waitFor(t, func() bool { return len(p.List(TypeCPU, "alarm", 0)) == 1 })
	if got := p.List(TypeCPU, "alert", 0); len(got) != 1 || !got[0].Pinned {
		t.Fatalf("alert cpu captures = %+v, want one pinned", got)
	}
}

// TestRingListFilters exercises the type/trigger/limit filters and the
// newest-first ordering behind GET /api/v1/profiles.
func TestRingListFilters(t *testing.T) {
	p := testProfiler(t, nil)
	add := func(id, typ, trigger string) {
		p.ring.Add(capture{info: CaptureInfo{ID: id, Type: typ, Trigger: trigger}, blob: []byte{0}}, 1, false)
	}
	add("cpu1", TypeCPU, TriggerInterval)
	add("heap1", TypeHeap, TriggerInterval)
	add("cpu2", TypeCPU, "alert")
	add("cpu3", TypeCPU, TriggerInterval)

	all := p.List("", "", 0)
	if len(all) != 4 || all[0].ID != "cpu3" || all[3].ID != "cpu1" {
		t.Fatalf("list all = %+v, want newest-first cpu3..cpu1", all)
	}
	cpus := p.List(TypeCPU, "", 0)
	if len(cpus) != 3 {
		t.Fatalf("type filter: got %d, want 3", len(cpus))
	}
	alerts := p.List("", "alert", 0)
	if len(alerts) != 1 || alerts[0].ID != "cpu2" {
		t.Fatalf("trigger filter = %+v, want [cpu2]", alerts)
	}
	if lim := p.List(TypeCPU, "", 2); len(lim) != 2 || lim[0].ID != "cpu3" {
		t.Fatalf("limit filter = %+v", lim)
	}
}

// TestListSizedForLimit: a limited List sizes its result for the limit,
// not for every capture in the ring, and a List that matches nothing is
// empty but not nil, so it renders as [].
func TestListSizedForLimit(t *testing.T) {
	p := testProfiler(t, nil)
	for i := 0; i < 100; i++ {
		p.ring.Add(capture{info: CaptureInfo{ID: "cpu" + strconv.Itoa(i), Type: TypeCPU}, blob: []byte{0}}, 1, false)
	}
	if l := p.List("", "", 12); len(l) != 12 || cap(l) > 12 {
		t.Fatalf("List(limit 12) has len %d cap %d, want 12 and at most 12", len(l), cap(l))
	}
	if l := p.List(TypeHeap, "", 12); l == nil || len(l) != 0 {
		t.Fatalf("a List that matches nothing = %#v, want empty and non-nil", l)
	}
}

// TestTriggerCooldown: a second trigger inside the cooldown window (one
// Interval) is refused, so an alarm storm cannot turn the sampler
// always-on.
func TestTriggerCooldown(t *testing.T) {
	p := testProfiler(t, func(c *Config) {
		c.Interval = time.Hour
	})
	if !p.TriggerCapture("alert") {
		t.Fatal("first trigger refused")
	}
	if p.TriggerCapture("alert") {
		t.Fatal("second trigger inside cooldown accepted")
	}
}

// TestCPUGateSkips: while another caller holds the process-wide CPU
// slot, a cycle skips the CPU capture (counting an error) but still
// takes the snapshots.
func TestCPUGateSkips(t *testing.T) {
	if !TryAcquireCPU() {
		t.Skip("cpu profile slot held elsewhere")
	}
	defer ReleaseCPU()

	p := testProfiler(t, nil)
	p.CycleNow("")
	if _, ok := p.Latest(TypeCPU); ok {
		t.Fatal("cpu capture taken while gate was held")
	}
	if _, ok := p.Latest(TypeHeap); !ok {
		t.Fatal("snapshots must still run when the cpu slot is busy")
	}
	if s := p.Stats(); s.Errors == 0 {
		t.Fatalf("stats = %+v, want skipped cpu window counted as error", s)
	}
}

// funcSample is one (function, self-value) pair in a synthetic profile.
type funcSample struct {
	name string
	flat int64
}

// buildCPUBlob hand-encodes a minimal valid pprof protobuf (raw, not
// gzipped — ParseSummary accepts both) with one single-frame sample per
// function. It exists so tests can feed store() profiles with chosen
// function shares, which real runtime captures can't provide.
func buildCPUBlob(fns []funcSample) []byte {
	var varint func(b []byte, v uint64) []byte
	varint = func(b []byte, v uint64) []byte {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	field := func(b []byte, num int, msg []byte) []byte {
		b = varint(b, uint64(num)<<3|wireBytes)
		b = varint(b, uint64(len(msg)))
		return append(b, msg...)
	}
	vfield := func(b []byte, num int, v uint64) []byte {
		b = varint(b, uint64(num)<<3|wireVarint)
		return varint(b, v)
	}

	var out []byte
	// sample_type: ValueType{type: "cpu"(1), unit: "nanoseconds"(2)}
	out = field(out, 1, vfield(vfield(nil, 1, 1), 2, 2))
	for i, fn := range fns {
		id := uint64(i + 1)
		nameIdx := uint64(i + 3) // after "", "cpu", "nanoseconds"
		// sample: one leaf-only stack [locID] with value [flat]
		out = field(out, 2, append(
			field(nil, 1, varint(nil, id)),
			field(nil, 2, varint(nil, uint64(fn.flat)))...))
		// location: Location{id, line: Line{function_id}}
		out = field(out, 4, append(
			vfield(nil, 1, id),
			field(nil, 4, vfield(nil, 1, id))...))
		// function: Function{id, name}
		out = field(out, 5, vfield(vfield(nil, 1, id), 2, nameIdx))
	}
	for _, s := range append([]string{"", "cpu", "nanoseconds"},
		func() []string {
			names := make([]string, len(fns))
			for i, fn := range fns {
				names[i] = fn.name
			}
			return names
		}()...) {
		out = field(out, 6, []byte(s))
	}
	return out
}

// TestRegressionPublishesBusEvent drives two synthetic CPU captures
// through store: the second shows one function jumping from ~11% to
// ~56% flat share, which must publish exactly one profile.regression
// bus event and count in Stats.
func TestRegressionPublishesBusEvent(t *testing.T) {
	bus := obs.NewBus()
	p := testProfiler(t, func(c *Config) { c.Bus = bus })
	sub := bus.Subscribe(16)
	defer sub.Close()

	p.store(TypeCPU, TriggerInterval, false,
		buildCPUBlob([]funcSample{{"hot", 50}, {"steady", 400}}))
	p.store(TypeCPU, TriggerInterval, false,
		buildCPUBlob([]funcSample{{"hot", 500}, {"steady", 400}}))

	select {
	case e := <-sub.Events():
		if e.Type != EventRegression {
			t.Fatalf("event type = %q, want %q", e.Type, EventRegression)
		}
		if e.Value < 50 || e.Value > 60 { // hot is 500/900 ≈ 55.6%
			t.Fatalf("event value = %.1f, want hot's ~55.6%% share", e.Value)
		}
		if !strings.Contains(e.Msg, "hot") {
			t.Fatalf("event msg = %q, want the hot function named", e.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no profile.regression event published")
	}
	s := p.Stats()
	if s.Regressions != 1 {
		t.Fatalf("stats.Regressions = %d, want 1 (steady shrank, must not flag)", s.Regressions)
	}
	// The stored captures carry parsed summaries of the synthetic blobs.
	info, _ := p.Latest(TypeCPU)
	if info.Summary == nil || info.Summary.SampleType != "cpu" || info.Summary.Total != 900 {
		t.Fatalf("latest summary = %+v", info.Summary)
	}
}

// TestNilProfilerSafe: every method must be a no-op on nil, because
// commands wire the profiler unconditionally and leave it nil when
// -profile-interval 0 disables it.
func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	stop := p.Start()
	stop()
	p.CycleNow("alert")
	if p.TriggerCapture("alert") {
		t.Fatal("nil TriggerCapture returned true")
	}
	if got := p.List("", "", 0); got != nil {
		t.Fatalf("nil List = %+v", got)
	}
	if _, _, ok := p.Get("x"); ok {
		t.Fatal("nil Get returned ok")
	}
	if _, ok := p.Latest(TypeCPU); ok {
		t.Fatal("nil Latest returned ok")
	}
	if s := p.Stats(); s.Captures != 0 {
		t.Fatalf("nil Stats = %+v", s)
	}
}

// TestStartStopIdempotent: stop returns promptly mid-duty and is safe to
// call twice.
func TestStartStopIdempotent(t *testing.T) {
	p := testProfiler(t, func(c *Config) {
		c.Interval = 50 * time.Millisecond
		c.Duty = 50 * time.Millisecond
	})
	stop := p.Start()
	time.Sleep(10 * time.Millisecond) // land inside the first duty window
	done := make(chan struct{})
	go func() { stop(); stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return; quit must end the duty window early")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within 10s")
}
