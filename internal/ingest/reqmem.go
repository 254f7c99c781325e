package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxPresize caps the body buffer sized from Content-Length: a request
// that declares more than it sends cannot make the server allocate
// more than this up front.
const maxPresize = 256 << 10

// maxPooled caps, in bytes, a buffer or slab that goes back to its pool:
// one request with a large body does not keep that much memory resident.
const maxPooled = 1 << 20

// reqMem is the memory a JSON ingest request reads its body into and
// decodes its windows and labels onto. Nothing uses it once the handler
// returns, because a queue slot copies a window's label and endpoint, so
// the handler gives it back to reqPool then. The window values go onto
// a valueSlab, which the queued windows share.
type reqMem struct {
	body []byte
	dec  decoder
}

var reqPool = sync.Pool{New: func() any { return new(reqMem) }}

// free returns m to reqPool, without its windows' pointers into their
// value slab and without any buffer or slab larger than maxPooled.
func (m *reqMem) free() {
	clear(m.dec.wins)
	m.body = pooled(m.body)
	m.dec = decoder{wins: pooled(m.dec.wins), labels: pooled(m.dec.labels)}
	reqPool.Put(m)
}

// readBatch reads a JSON Batch body of at most maxBodyBytes (r is the
// request's http.MaxBytesReader) into m and decodes it. The canonical
// wire form json.Marshal and json.Encoder emit takes the fast decoder,
// whose windows' values lie on the returned slab; the caller holds one
// reference to it. Anything the fast decoder declines goes to
// encoding/json, which also writes every error message, and its
// windows carry no slab.
func (m *reqMem) readBatch(r io.Reader, contentLength int64) (Batch, *valueSlab, error) {
	buf := bytes.NewBuffer(m.body[:0])
	buf.Grow(int(min(max(contentLength, 0), maxPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	m.body = buf.Bytes()
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return Batch{}, nil, fmt.Errorf("body exceeds %d bytes", maxErr.Limit)
		}
		return Batch{}, nil, fmt.Errorf("decoding batch: %w", err)
	}
	sl := slabPool.Get().(*valueSlab)
	m.dec.vals = sl.vals
	batch, ok := m.dec.decode(m.body)
	sl.vals, m.dec.vals = m.dec.vals, nil
	if ok {
		sl.refs.Store(1)
		return batch, sl, nil
	}
	sl.free()
	dec := json.NewDecoder(bytes.NewReader(m.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return Batch{}, nil, fmt.Errorf("decoding batch: %w", err)
	}
	if dec.More() {
		return Batch{}, nil, errors.New("trailing data after batch object (use application/x-ndjson for streams)")
	}
	return batch, nil, nil
}

// valueSlab holds the values of every window the fast decoder decoded
// from one request. The handler holds one reference and each queued
// window one more; the last release returns the slab to slabPool, so
// a window's values must be read before the window is released.
type valueSlab struct {
	vals []float64
	refs atomic.Int64
	// poison, a test hook, overwrites the values with NaN when the slab
	// goes back to the pool, so a window read after its release shows.
	poison bool
}

var slabPool = sync.Pool{New: func() any { return new(valueSlab) }}

// release drops n references to sl (nil: values the caller owns); the
// last one returns the slab to the pool.
func (sl *valueSlab) release(n int) {
	if sl == nil {
		return
	}
	switch refs := sl.refs.Add(-int64(n)); {
	case refs > 0:
		return
	case refs < 0:
		panic("ingest: value slab released more often than referenced")
	}
	sl.free()
}

// free returns an unreferenced slab to the pool.
func (sl *valueSlab) free() {
	if sl.poison {
		vals := sl.vals[:cap(sl.vals)]
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	sl.vals = pooled(sl.vals)
	slabPool.Put(sl)
}

// releaseSlabs drops the value-slab reference of every window in ws,
// one release per run of windows that share a slab.
func releaseSlabs(ws []queuedWindow) {
	for i := 0; i < len(ws); {
		sl := ws[i].slab
		j := i + 1
		for j < len(ws) && ws[j].slab == sl {
			j++
		}
		sl.release(j - i)
		i = j
	}
}

// pooled returns s emptied, or nil when its backing array is larger
// than maxPooled bytes.
func pooled[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooled {
		return nil
	}
	return s[:0]
}
