package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// enqueuePinned enqueues n traced windows whose values share one slab
// and returns two channels, closed when the garbage collector frees the
// slab and the batch's trace. It builds the batch in its own frame, so
// once it returns only the service can keep either alive.
func enqueuePinned(t *testing.T, s *Service, rt *obs.ReqTracer, tenant, overflow string, n int) (slabFreed, traceFreed <-chan struct{}) {
	t.Helper()
	slab := make([]float64, 4*n)
	ws := make([]Window, n)
	for i := range ws {
		v := slab[4*i : 4*i+4 : 4*i+4]
		v[0], v[1], v[2], v[3] = float64(i%2), 0.2, 0.3, 0.4
		ws[i] = Window{Endpoint: "ep", Values: v}
	}
	at := rt.Sample(obs.TraceContext{}, "ingest", tenant, time.Now().UnixNano())
	if at == nil {
		t.Fatal("tracer did not sample the batch")
	}
	sf, tf := make(chan struct{}), make(chan struct{})
	runtime.SetFinalizer(&slab[0], func(*float64) { close(sf) })
	runtime.SetFinalizer(at, func(*obs.ActiveTrace) { close(tf) })
	if _, err := s.EnqueueTraced(tenant, overflow, ws, at); err != nil {
		t.Fatal(err)
	}
	at.End(0)
	return sf, tf
}

// enqueuePlain enqueues n untraced windows with fresh values.
func enqueuePlain(t *testing.T, s *Service, tenant, overflow string, n int) {
	t.Helper()
	ws := make([]Window, n)
	for i := range ws {
		ws[i] = Window{Endpoint: "ep", Values: []float64{0.1, 0.2, 0.3, 0.4}}
	}
	if _, err := s.Enqueue(tenant, overflow, ws); err != nil {
		t.Fatal(err)
	}
}

// waitFreed collects garbage until freed closes, failing at a deadline.
func waitFreed(t *testing.T, what string, freed <-chan struct{}) {
	t.Helper()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	gc := time.NewTicker(time.Millisecond)
	defer gc.Stop()
	for {
		select {
		case <-freed:
			return
		case <-deadline.C:
			t.Fatalf("%s is still reachable after its windows left the queue", what)
		case <-gc.C:
			runtime.GC()
		}
	}
}

// TestDrainedWindowsPinNothing: a window that has its verdict, or was
// evicted, holds neither its request's value slab nor its trace. The
// queue slots the drain and the eviction take are cleared, and so is
// the shard's chunk scratch once a chunk is done.
func TestDrainedWindowsPinNothing(t *testing.T) {
	newSvc := func(t *testing.T, queueCap int) (*Service, *obs.ReqTracer) {
		rt := obs.NewReqTracer(obs.ReqTracerConfig{HeadRatio: 1})
		s, err := New(testConfig(t, func(c *Config) {
			c.Shards = 1
			c.QueueCap = queueCap
			c.Tracer = rt
		}))
		if err != nil {
			t.Fatal(err)
		}
		return s, rt
	}
	start := func(t *testing.T, s *Service) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		s.Start(ctx)
	}

	t.Run("drained by the shard", func(t *testing.T) {
		s, rt := newSvc(t, 1024)
		start(t, s)
		slab, trace := enqueuePinned(t, s, rt, "acme", "", 64)
		waitDrained(t, s)
		// A second chunk of the same size takes the shard's scratch
		// slots, so only the queue's own slots could still hold the
		// first batch.
		enqueuePlain(t, s, "acme", "", 64)
		waitDrained(t, s)
		waitFreed(t, "the drained batch's value slab", slab)
		waitFreed(t, "the drained batch's trace", trace)
	})

	t.Run("evicted by drop_oldest", func(t *testing.T) {
		s, rt := newSvc(t, 1024)
		slab, trace := enqueuePinned(t, s, rt, "acme", OverflowDropOldest, 512)
		// The workers never start: a full-size batch evicts the whole
		// first one, and the ring grows past the slots it cleared.
		enqueuePlain(t, s, "acme", "", 1024)
		if st := s.Stats(); st.WindowsDropped != 512 || st.Queued != 1024 {
			t.Fatalf("stats after eviction = %+v", st)
		}
		waitFreed(t, "the evicted batch's value slab", slab)
		waitFreed(t, "the evicted batch's trace", trace)
	})

	t.Run("last chunk of an idle shard", func(t *testing.T) {
		s, rt := newSvc(t, 1024)
		start(t, s)
		slab, trace := enqueuePinned(t, s, rt, "acme", "", 64)
		waitDrained(t, s)
		waitFreed(t, "the last drained chunk's value slab", slab)
		waitFreed(t, "the last drained chunk's trace", trace)
	})
}

// recClf is an uncompilable classifier that records the first feature
// of every window it classifies, in the order the drain classifies
// them.
type recClf struct {
	stubClf
	seen *[]float64
}

func (c recClf) Predict(f []float64) int {
	*c.seen = append(*c.seen, f[0])
	return c.stubClf.Predict(f)
}

// refQueue is the reference the growing ring must match: a FIFO of
// window ids bounded at queueCap, with the overflow rules of Enqueue.
type refQueue struct {
	ids        []float64
	queueCap   int
	dropOldest bool
}

func (q *refQueue) enqueue(overflow string, ids []float64) (Accepted, *QueueFullError) {
	switch overflow {
	case OverflowDropOldest:
		q.dropOldest = true
	case OverflowReject:
		q.dropOldest = false
	}
	full := &QueueFullError{Tenant: "acme", Queued: len(q.ids), Cap: q.queueCap, RetryAfter: time.Second}
	res := Accepted{Tenant: "acme"}
	if len(ids) > q.queueCap {
		if !q.dropOldest {
			return Accepted{}, full
		}
		res.Dropped += len(ids) - q.queueCap
		ids = ids[len(ids)-q.queueCap:]
	}
	if evict := len(q.ids) + len(ids) - q.queueCap; evict > 0 {
		if !q.dropOldest {
			return Accepted{}, full
		}
		q.ids = q.ids[evict:]
		res.Dropped += evict
	}
	q.ids = append(q.ids, ids...)
	res.Accepted, res.Queued = len(ids), len(q.ids)
	return res, nil
}

func (q *refQueue) drain() []float64 {
	n := min(len(q.ids), drainChunk)
	out := q.ids[:n:n]
	q.ids = q.ids[n:]
	return out
}

// TestGrowingRingMatchesFixedFIFO drives the tenant ring and a bounded
// reference FIFO with the same random batches, overflow policies and
// drains. Receipts, rejections and the verdict order must match, the
// ring must stay within QueueCap and within one power of two of the
// deepest depth, and every slot outside the queued windows must be
// zero.
func TestGrowingRingMatchesFixedFIFO(t *testing.T) {
	for _, queueCap := range []int{8, 64, 1000, 16384} {
		t.Run(fmt.Sprint(queueCap), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(queueCap)))
			var seen []float64
			s, err := New(testConfig(t, func(c *Config) {
				c.Classifier = recClf{seen: &seen}
				c.QueueCap = queueCap
			}))
			if err != nil {
				t.Fatal(err)
			}
			// The workers never start: the test goroutine is the queue's
			// only user, and each drain takes one chunk.
			sc := newShardScratch(s, drainChunk)
			ref := &refQueue{queueCap: queueCap}
			nextID, deepest, wrappedGrowths := 0.0, 0, 0

			enqueue := func(n int, overflow string) {
				t.Helper()
				ids := make([]float64, n)
				vals := make([]float64, 4*n)
				ws := make([]Window, n)
				for i := range ws {
					nextID++
					ids[i] = nextID
					vals[4*i] = nextID
					ws[i] = Window{Values: vals[4*i : 4*i+4 : 4*i+4]}
				}
				wrapped := false
				if ten := s.lookupTenant("acme"); ten != nil {
					wrapped = ten.head+ten.n > len(ten.queue)
				}
				before := s.Stats().QueueSlots
				got, err := s.Enqueue("acme", overflow, ws)
				want, wantErr := ref.enqueue(overflow, ids)
				if wantErr != nil {
					var qf *QueueFullError
					if !errors.As(err, &qf) || *qf != *wantErr {
						t.Fatalf("batch of %d (%q): err = %v, want %v", n, overflow, err, wantErr)
					}
					return
				}
				if err != nil || got != want {
					t.Fatalf("batch of %d (%q): receipt %+v, %v; want %+v", n, overflow, got, err, want)
				}
				if s.Stats().QueueSlots > before && wrapped {
					wrappedGrowths++
				}
				deepest = max(deepest, len(ref.ids))
			}
			drain := func() {
				t.Helper()
				seen = seen[:0]
				s.drainTenant(s.lookupTenant("acme"), sc)
				want := ref.drain()
				if fmt.Sprint(seen) != fmt.Sprint(want) {
					t.Fatalf("verdict order %v, want %v", seen, want)
				}
			}
			check := func() {
				t.Helper()
				ten := s.lookupTenant("acme")
				slots := len(ten.queue)
				bound := drainChunk
				for bound < deepest {
					bound *= 2
				}
				if slots > queueCap || slots > bound {
					t.Fatalf("ring has %d slots: QueueCap %d, deepest depth %d", slots, queueCap, deepest)
				}
				if ten.n != len(ref.ids) {
					t.Fatalf("queued %d, reference %d", ten.n, len(ref.ids))
				}
				for i := range ten.queue {
					live := (i-ten.head+slots)%slots < ten.n
					if w := ten.queue[i]; !live && (w.values != nil || w.trace != nil ||
						w.endpoint != "" || w.label != 0 || w.enqueuedNS != 0) {
						t.Fatalf("slot %d outside the queue still holds %+v", i, ten.queue[i])
					}
				}
				if got := s.Stats().QueueSlots; got != int64(slots) {
					t.Fatalf("Stats.QueueSlots = %d, ring has %d", got, slots)
				}
				if sum, _ := s.Tenant("acme"); sum.QueueSlots != slots {
					t.Fatalf("TenantSummary.QueueSlots = %d, ring has %d", sum.QueueSlots, slots)
				}
			}

			// Wrap the head, then grow: 300 windows leave through one
			// drain, the next 400 wrap past the 512-slot ring's end, and
			// 200 more need room.
			for _, n := range []int{300, -1, 400, 200} {
				if n < 0 {
					drain()
				} else {
					enqueue(min(n, queueCap), OverflowReject)
				}
				check()
			}
			ops := 400
			if queueCap > 1000 {
				ops = 120
			}
			overflows := []string{"", OverflowReject, OverflowDropOldest}
			for op := 0; op < ops; op++ {
				if rng.Intn(3) == 0 {
					for k := rng.Intn(4); k >= 0; k-- {
						drain()
					}
				} else {
					n := 1 + rng.Intn(queueCap+100)
					if rng.Intn(2) == 0 {
						n = 1 + rng.Intn(min(queueCap, 700))
					}
					enqueue(n, overflows[rng.Intn(len(overflows))])
				}
				check()
			}
			for len(ref.ids) > 0 {
				drain()
			}
			check()
			if queueCap > drainChunk && wrappedGrowths == 0 {
				t.Fatal("the ring never grew while its head had wrapped")
			}
		})
	}
}
