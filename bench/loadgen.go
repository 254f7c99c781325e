package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// fake one to check the schedule without sleeping.
type clock interface {
	// now is the time elapsed since the clock's origin.
	now() time.Duration
	// sleepUntil returns once now() >= t.
	sleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// op is one scheduled request: its kind (an index the caller defines)
// and when it is due, on the clock's axis.
type op struct {
	kind int
	due  time.Duration
}

// outcome is what happened to one op. Latency counts from due, not from
// sent: a stall that delays later sends is charged to every request it
// delays.
type outcome struct {
	op
	sent, done time.Duration
	ok         bool
}

func (o outcome) latency() time.Duration { return o.done - o.due }
func (o outcome) late() time.Duration    { return o.sent - o.due }

// openLoop sends ops on their schedule regardless of how earlier ones
// fare: each of the workers takes the next unsent op in due order, waits
// until it is due and sends it. With every worker busy, ops queue at the
// generator and their lateness shows how far it fell behind. do reports
// whether the op succeeded.
func openLoop(clk clock, ops []op, workers int, do func(worker int, o op) bool) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				clk.sleepUntil(o.due)
				sent := clk.now()
				ok := do(w, o)
				out[i] = outcome{op: o, sent: sent, done: clk.now(), ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs workers clients that each send their next op as soon as
// the previous one completes, until the clock passes until. An op is due
// when its predecessor on the same worker completed, so lateness here is
// the generator's own overhead between requests.
func closedLoop(clk clock, until time.Duration, workers int, do func(worker int) bool) []outcome {
	per := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			due := clk.now()
			for due < until {
				sent := clk.now()
				ok := do(w)
				done := clk.now()
				per[w] = append(per[w], outcome{op: op{due: due}, sent: sent, done: done, ok: ok})
				due = done
			}
		}(w)
	}
	wg.Wait()
	var out []outcome
	for _, o := range per {
		out = append(out, o...)
	}
	return out
}

// schedule lays out an open-loop run of length d: ops of kind i arrive
// every 1/rates[i] seconds, all kinds interleaved in due order. Kind k
// starts k/len(rates) of its interval in, so kinds that share a rate
// take turns instead of arriving together.
func schedule(d time.Duration, rates ...float64) []op {
	var ops []op
	for kind, rate := range rates {
		n := int(rate * d.Seconds())
		phase := float64(kind) / float64(len(rates))
		for i := 0; i < n; i++ {
			ops = append(ops, op{kind: kind, due: time.Duration((float64(i) + phase) / rate * float64(time.Second))})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}
