package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock jumps to a sleeper's wake-up time instead of sleeping, and
// advances only when told, so schedules replay exactly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

const ms = time.Millisecond

// A stall on the first request delays the next two; each is timed from
// when it was due, and its lateness is how long after that it was sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{}
	ops := []op{{due: 0}, {due: 10 * ms}, {due: 20 * ms}, {due: 30 * ms}}
	service := []time.Duration{25 * ms, ms, ms, ms}
	i := 0
	outs := openLoop(clk, ops, 1, func(_ int, o op) bool {
		clk.advance(service[i])
		i++
		return true
	})
	want := []struct{ latency, late time.Duration }{
		{25 * ms, 0},
		{16 * ms, 15 * ms},
		{7 * ms, 6 * ms},
		{1 * ms, 0},
	}
	for i, o := range outs {
		if o.latency() != want[i].latency || o.late() != want[i].late {
			t.Errorf("op %d: latency %v late %v, want %v and %v", i, o.latency(), o.late(), want[i].latency, want[i].late)
		}
	}
	if l := lateTailMS(outs); l != 3 {
		// Four samples support no tail percentile: the median of
		// 0, 15, 6 and 0 ms.
		t.Errorf("lateTailMS = %v, want 3", l)
	}
}

func TestOpenLoopSendsEveryOpOnce(t *testing.T) {
	clk := &fakeClock{}
	ops := schedule(time.Second, 100, 30)
	seen := make([]int, len(ops))
	var mu sync.Mutex
	outs := openLoop(clk, ops, 2, func(_ int, o op) bool {
		mu.Lock()
		defer mu.Unlock()
		for i := range ops {
			if ops[i] == o && seen[i] == 0 {
				seen[i]++
				break
			}
		}
		return o.kind == 0
	})
	if len(outs) != 130 {
		t.Fatalf("%d outcomes, want 130", len(outs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("op %d sent %d times", i, n)
		}
	}
	if failed := countFailed(outs); failed != 30 {
		t.Errorf("%d failed, want the 30 of kind 1", failed)
	}
}

func TestScheduleInterleavesInDueOrder(t *testing.T) {
	ops := schedule(100*ms, 100, 50)
	if len(ops) != 15 {
		t.Fatalf("%d ops, want 10 + 5", len(ops))
	}
	kinds := map[int]int{}
	first := map[int]time.Duration{}
	for i, o := range ops {
		if kinds[o.kind] == 0 {
			first[o.kind] = o.due
		}
		kinds[o.kind]++
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due %v before op %d at %v", i, o.due, i-1, ops[i-1].due)
		}
	}
	if kinds[0] != 10 || kinds[1] != 5 || ops[len(ops)-1].due != 90*ms {
		t.Errorf("kinds %v, last due %v", kinds, ops[len(ops)-1].due)
	}
	// Kind 1 of 2 starts half its 20 ms interval in.
	if first[0] != 0 || first[1] != 10*ms {
		t.Errorf("first ops due at %v", first)
	}
}

// In a closed loop a request is due when its predecessor completed, so
// the service time never shows up as lateness.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{}
	outs := closedLoop(clk, 50*ms, 1, func(int) bool {
		clk.advance(20 * ms)
		return true
	})
	if len(outs) != 3 {
		t.Fatalf("%d requests, want 3 (sent at 0, 20 and 40 ms)", len(outs))
	}
	for i, o := range outs {
		if o.late() != 0 || o.latency() != 20*ms {
			t.Errorf("request %d: late %v latency %v", i, o.late(), o.latency())
		}
	}
}
