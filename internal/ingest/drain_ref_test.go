package ingest

import (
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
)

// refDrainTenant is the reference for drainTenant: the drain as it was
// written before its bookkeeping went per chunk. It copies the chunk out
// of the ring one slot at a time, and per window it takes the
// scoreboard's lock, the latency histogram's lock and bucket search, and
// the endpoint map lookup. It reads the service clock where the drain
// does, so the differential test can run both on one fake clock and
// require identical scoreboards, drift sketches, histogram, counts and
// bus events.
func refDrainTenant(s *Service, t *tenant, sc *shardScratch) int {
	t.mu.Lock()
	n := t.n
	if n == 0 {
		t.mu.Unlock()
		return 0
	}
	depth := t.n
	if n > drainChunk {
		n = drainChunk
	}
	traced := false
	sc.ws = sc.ws[:0]
	for i := 0; i < n; i++ {
		slot := &t.queue[(t.head+i)%len(t.queue)]
		if slot.trace != nil {
			traced = true
		}
		sc.ws = append(sc.ws, *slot)
		*slot = queuedWindow{}
	}
	t.head = (t.head + n) % len(t.queue)
	t.n -= n
	t.mu.Unlock()
	defer sc.release()

	var dequeueNS int64
	if traced {
		dequeueNS = s.now()
	}

	sc.X = sc.X[:0]
	for i := range sc.ws {
		sc.X = append(sc.X, sc.ws[i].values)
	}
	dst := sc.dst[:n]
	var probClf ml.ProbClassifier
	if s.prog != nil {
		var err error
		if sc.proba != nil {
			err = s.prog.Classify(dst, sc.proba[:n], sc.X)
		} else {
			err = s.prog.Predict(dst, sc.X)
		}
		if err != nil {
			if traced {
				endNS := s.now()
				for i := range sc.ws {
					if tr := sc.ws[i].trace; tr != nil {
						tr.SetError(err.Error())
						tr.FinishPending(1, endNS)
					}
				}
			}
			return n
		}
	} else {
		for i := range sc.X {
			dst[i] = s.cfg.Classifier.Predict(sc.X[i])
		}
		probClf, _ = s.cfg.Classifier.(ml.ProbClassifier)
	}

	now := s.now()
	var malware, alarms int64
	seg := 0
	for i := range sc.ws {
		w := &sc.ws[i]
		pred := dst[i]
		score := float64(pred)
		if sc.proba != nil {
			score = malwareScore(sc.proba[i], pred)
		} else if probClf != nil {
			if p := probClf.Proba(w.values); len(p) > 0 {
				score = malwareScore(p, pred)
			}
		}
		if pred == 1 {
			malware++
		}
		if w.label >= 0 {
			t.board.Observe(int(w.label), pred, score)
		}
		if es := t.endpoint(w.endpoint); es != nil {
			raised := es.sm.Observe(pred)
			if raised && !es.alarmed {
				alarms++
				w.trace.Keep("alarm")
				s.cfg.Bus.Publish(obs.Event{Type: EventAlarm,
					Sample: w.endpoint, Class: t.id, Value: score})
			}
			es.alarmed = raised
		}
		t.sinceRotate++
		if t.sinceRotate >= s.rotateEvery {
			t.board.Advance()
			if t.drift != nil {
				t.drift.ObserveChunk(sc.X[seg : i+1])
				t.drift.Advance()
			}
			seg = i + 1
			t.sinceRotate = 0
		}
		lat := float64(now-w.enqueuedNS) / float64(time.Second)
		if w.trace != nil {
			s.hLatency.ObserveExemplar(lat, w.trace.TraceID(), now/1e6)
		} else {
			s.hLatency.Observe(lat)
		}
	}
	if t.drift != nil {
		t.drift.ObserveChunk(sc.X[seg:])
	}
	if traced {
		s.emitDrainSpans(sc, n, depth, dequeueNS, now)
	}
	t.windowsProcessed.Add(int64(n))
	s.mProcessed.Add(int64(n))
	s.processedTotal.Add(int64(n))
	if malware > 0 {
		t.malwareWindows.Add(malware)
		s.mMalware.Add(malware)
		s.malwareTotal.Add(malware)
	}
	if alarms > 0 {
		t.alarms.Add(alarms)
		s.mAlarms.Add(alarms)
		s.alarmsTotal.Add(alarms)
	}
	s.gQueued.Set(float64(s.queuedTotal.Add(int64(-n))))
	return n
}
