package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// readNDJSON decodes one Window per non-blank line of r, each line at
// most 1 MiB, with json.Unmarshal.
func readNDJSON(r io.Reader) ([]Window, error) {
	var wins []Window
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		line++
		if raw == "" {
			continue
		}
		var win Window
		if err := json.Unmarshal([]byte(raw), &win); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		wins = append(wins, win)
		if len(wins) > maxBatchWindows {
			return nil, fmt.Errorf("batch exceeds %d windows", maxBatchWindows)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading ndjson body: %w", err)
	}
	return wins, nil
}

// decoder is a single-pass JSON decoder for the wire form that
// encoding/json emits for Batch: keys spelled exactly as the struct
// tags, each at most once, no null, plain ASCII strings and integer
// labels. It produces no errors of its own. On any input it does not
// fully handle it declines, and the caller decodes the same bytes with
// encoding/json, so whatever it accepts decodes exactly as
// encoding/json decodes it (FuzzDecodeBatch).
//
// A request's values share one slab and its labels another, so decoding
// allocates per request rather than per window, and a decoder that is
// reused keeps its slabs' room: the handler's decoders come from reqPool
// and allocate nothing for slabs that room can hold.
type decoder struct {
	b []byte // input
	i int    // read offset in b

	wins []Window
	// vals is never nil, so that a present but empty values array
	// decodes non-nil, as encoding/json decodes it.
	vals   []float64
	labels []int
	// endpoint is the last endpoint decoded: a run of windows from one
	// endpoint shares one string.
	endpoint string
}

var (
	batchKeys  = [3]string{"tenant", "overflow", "windows"}
	windowKeys = [3]string{"endpoint", "label", "values"}
)

// decodeBatch decodes a whole JSON Batch body with a fresh decoder. It
// reports false on any input it does not handle.
func decodeBatch(b []byte) (Batch, bool) {
	var d decoder
	return d.decode(b)
}

// decode decodes a whole JSON Batch body onto the decoder's slabs,
// overwriting what its last decode left there. Only their room carries
// over, so it decodes every input exactly as a fresh decoder does. It
// reports false on any input it does not handle.
func (d *decoder) decode(b []byte) (Batch, bool) {
	*d = decoder{b: b, wins: d.wins[:0], vals: d.vals[:0], labels: d.labels[:0]}
	if d.vals == nil {
		d.vals = []float64{}
	}
	var batch Batch
	ok := d.members(&batchKeys, func(key string) bool {
		switch key {
		case "tenant":
			s, ok := d.str()
			batch.Tenant = string(s)
			return ok
		case "overflow":
			s, ok := d.str()
			batch.Overflow = string(s)
			return ok
		}
		ok := d.windows()
		batch.Windows = d.wins // non-nil: the key was present
		return ok
	})
	if !ok || !d.end() {
		return Batch{}, false
	}
	if batch.Windows != nil {
		batch.Windows = d.finish()
	}
	return batch, true
}

// finish points every window at its place in the final slabs, which
// growth may have moved since the window was decoded, and returns the
// windows. The full slice expressions keep a window from growing into
// its neighbour.
func (d *decoder) finish() []Window {
	v, l := 0, 0
	for i := range d.wins {
		w := &d.wins[i]
		if w.Values != nil {
			end := v + len(w.Values)
			w.Values = d.vals[v:end:end]
			v = end
		}
		if w.Label != nil {
			w.Label = &d.labels[l]
			l++
		}
	}
	return d.wins
}

// windows decodes the batch's window array.
func (d *decoder) windows() bool {
	if !d.consume('[') {
		return false
	}
	if d.wins == nil {
		d.wins = []Window{}
	}
	if d.consume(']') {
		return true
	}
	for {
		start := d.i
		if !d.window() {
			return false
		}
		if len(d.wins) == 1 {
			// Size the slabs on the guess that the body holds windows like
			// the first, with an eighth to spare for longer ones.
			n := len(d.b) / (d.i - start)
			d.reserve(n + n/8)
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// reserve grows the slabs to hold n windows shaped like the first. The
// rest of the body is still unchecked, so the value slab reserves no
// more bytes for it than it has left, and a malformed body cannot make
// the guess cost several times its size; append grows the slab past
// that when the windows are denser than eight bytes a value.
func (d *decoder) reserve(n int) {
	n = min(n, maxBatchWindows)
	if n <= len(d.wins) {
		return
	}
	first := d.wins[0]
	more := min((n-len(d.wins))*len(first.Values), (len(d.b)-d.i)/8)
	d.wins = withRoom(d.wins, n)
	d.vals = withRoom(d.vals, len(d.vals)+more)
	if first.Label != nil {
		d.labels = withRoom(d.labels, n)
	}
}

// withRoom returns s with room for n elements, moved to a new backing
// array only when its own has less.
func withRoom[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// window decodes one Window object onto the slabs.
func (d *decoder) window() bool {
	var w Window
	ok := d.members(&windowKeys, func(key string) bool {
		switch key {
		case "endpoint":
			s, ok := d.str()
			if string(s) != d.endpoint {
				d.endpoint = string(s)
			}
			w.Endpoint = d.endpoint
			return ok
		case "label":
			n, ok := d.label()
			d.labels = append(d.labels, n)
			w.Label = &d.labels[len(d.labels)-1]
			return ok
		}
		start := len(d.vals)
		ok := d.floats()
		w.Values = d.vals[start:len(d.vals):len(d.vals)]
		return ok
	})
	if ok {
		d.wins = append(d.wins, w)
	}
	return ok
}

// members decodes an object whose keys are among names, each at most
// once, calling value with the key to decode the value after its colon.
func (d *decoder) members(names *[3]string, value func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint8
	for {
		s, ok := d.str()
		if !ok || !d.consume(':') {
			return false
		}
		k := -1
		for i, name := range names {
			if string(s) == name {
				k = i
			}
		}
		if k < 0 || seen&(1<<k) != 0 || !value(names[k]) {
			return false
		}
		seen |= 1 << k
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// floats decodes an array of numbers onto the value slab.
func (d *decoder) floats() bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		f, ok := d.number()
		if !ok {
			return false
		}
		d.vals = append(d.vals, f)
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// number decodes a number literal. An integer of at most 15 digits is
// exact in a float64 and converts in place; any other literal must
// match the JSON number grammar and goes to strconv.ParseFloat, as in
// encoding/json, which rejects one out of range.
func (d *decoder) number() (float64, bool) {
	d.space()
	if n, neg, ok := d.integer(); ok {
		f := float64(n)
		if neg {
			f = -f // -0 stays negative zero
		}
		return f, true
	}
	n := numberLen(d.b[d.i:])
	if n == 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:d.i+n]), 64)
	if err != nil {
		return 0, false
	}
	d.i += n
	return f, true
}

// label decodes an integer label.
func (d *decoder) label() (int, bool) {
	d.space()
	n, neg, ok := d.integer()
	if !ok || n > math.MaxInt { // reachable where int has 32 bits
		return 0, false
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// integer decodes an integer literal of at most 15 digits and reports
// its magnitude and sign. On any other literal it consumes nothing and
// reports false.
func (d *decoder) integer() (n uint64, neg, ok bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 15 || (digits > 1 && b[start] == '0') {
		return 0, false, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false, false
	}
	d.i = i
	return n, neg, true
}

// numberLen returns the length of the JSON number literal b starts
// with, or 0 when it starts with none.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := digitsEnd(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digitsEnd returns the offset of the first non-digit in b at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// str decodes a string literal of plain ASCII: no escape, no control
// character and no byte above 0x7f. The bytes returned alias the input.
func (d *decoder) str() ([]byte, bool) {
	d.space()
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return nil, false
	}
	for j := d.i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s := b[d.i+1 : j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.space()
	return d.i == len(d.b)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
