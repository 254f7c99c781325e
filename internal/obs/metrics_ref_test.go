package obs

import "sort"

// refObserve and refObserveExemplar are the reference for the histogram's
// run form: Observe and ObserveExemplar as they were written before
// ObserveN, one lock and one bucket search per value. The differential
// test feeds them and the run form the same stream and requires every
// count, bound and sum bit to match.
func refObserve(h *Histogram, v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

func refObserveExemplar(h *Histogram, v float64, traceID string, nowUnixMS int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = Exemplar{Bucket: i, Value: v, TraceID: traceID, TimeUnixMS: nowUnixMS}
}
