package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// wireWindows returns n windows shaped like the fleet's traffic: 16 HPC
// event counts each, a label, and runs of four windows per endpoint, so
// 64 windows come from 16 endpoints.
func wireWindows(n int) []Window {
	labels := [2]int{0, 1}
	ws := make([]Window, n)
	x := uint64(1)
	for i := range ws {
		vals := make([]float64, 16)
		for j := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[j] = float64(x >> 39) // a count below 2^25
		}
		ws[i] = Window{
			Endpoint: fmt.Sprintf("ep-%02d", i/4%16),
			Label:    &labels[i%2],
			Values:   vals,
		}
	}
	return ws
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// jsonBatch is the reference decode: what handleIngest did with every
// JSON body before decodeBatch, and still does with the ones it declines.
func jsonBatch(b []byte) (Batch, error) {
	var batch Batch
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return Batch{}, err
	}
	if dec.More() {
		return Batch{}, fmt.Errorf("trailing data")
	}
	return batch, nil
}

// sameWindows fails unless got and want are reflect.DeepEqual, every
// float has the same bits (DeepEqual takes -0 for 0), no window's values
// can grow into another's, and got's values and labels lie end to end
// on one slab each.
func sameWindows(t *testing.T, got, want []Window) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoding/json decoded %+v", got, want)
	}
	var nextValue, nextLabel uintptr
	for i, w := range got {
		for j, v := range w.Values {
			if math.Float64bits(v) != math.Float64bits(want[i].Values[j]) {
				t.Fatalf("window %d value %d: %v, encoding/json %v", i, j, v, want[i].Values[j])
			}
		}
		if cap(w.Values) != len(w.Values) {
			t.Fatalf("window %d values have cap %d > len %d", i, cap(w.Values), len(w.Values))
		}
		if len(w.Values) > 0 {
			p := reflect.ValueOf(w.Values).Pointer()
			if nextValue != 0 && p != nextValue {
				t.Fatalf("window %d values are off the request's value slab", i)
			}
			nextValue = p + uintptr(len(w.Values))*8
		}
		if w.Label != nil {
			p := reflect.ValueOf(w.Label).Pointer()
			if nextLabel != 0 && p != nextLabel {
				t.Fatalf("window %d label is off the request's label slab", i)
			}
			nextLabel = p + strconv.IntSize/8
		}
	}
}

// TestDecodeTakesWireForms pins the gain: the JSON bodies the fleet
// sends take the fast decoder, not the encoding/json fallback, and decode
// as encoding/json decodes them. The windows carry fractional and
// exponent-form values too, as fleetgen's may.
func TestDecodeTakesWireForms(t *testing.T) {
	ws := wireWindows(64)
	ws[0].Values[0] = 1.0 / 3
	ws[1].Values[1] = 6.02e23
	ws[2].Values[2] = -5e-8
	ws[3].Values[3] = math.Copysign(0, -1)

	var encoded bytes.Buffer // fleetgen's JSON form, trailing newline included
	if err := json.NewEncoder(&encoded).Encode(Batch{Overflow: OverflowDropOldest, Windows: ws}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"json.Marshal":        marshal(t, Batch{Tenant: "acme", Windows: ws}),
		"json.Encoder.Encode": encoded.Bytes(),
	} {
		got, ok := decodeBatch(body)
		if !ok {
			t.Fatalf("%s body fell back to encoding/json", name)
		}
		want, err := jsonBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tenant != want.Tenant || got.Overflow != want.Overflow {
			t.Fatalf("%s: envelope %q/%q, want %q/%q", name, got.Tenant, got.Overflow, want.Tenant, want.Overflow)
		}
		sameWindows(t, got.Windows, want.Windows)
	}
}

// TestDecodeBatchAllocs bounds the allocations of decoding a canonical
// 64-window, 16-endpoint body: one string per endpoint run, and a few
// per request for the window, value and label slabs.
func TestDecodeBatchAllocs(t *testing.T) {
	body := marshal(t, Batch{Windows: wireWindows(64)})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := decodeBatch(body); !ok {
			t.Fatal("canonical body fell back to encoding/json")
		}
	})
	t.Logf("%.0f allocations per 64-window body", allocs)
	if allocs > 26 {
		t.Fatalf("decoding a 64-window body allocates %.0f times, want <= 26", allocs)
	}
}

// TestIngestFalseContentLength sends a request that declares a body of
// 64 MiB less one byte but carries 100 bytes: the buffer is sized from
// the header only up to maxPresize, so the request allocates well under
// 1 MiB.
func TestIngestFalseContentLength(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := marshal(t, Batch{Windows: []Window{win("ep0", 1)}})
	body = append(body, bytes.Repeat([]byte(" "), 100-len(body))...)
	send := func() {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body))
		req.ContentLength = maxBodyBytes - 1
		req.Header.Set(TenantHeader, "acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	send() // the tenant's first batch allocates its queue
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("a 100-byte request declaring %d bytes allocated %d bytes", maxBodyBytes-1, n)
	}
}

// TestDecodeBatchBoundsReservation gives the fast decoder a body whose
// first window is a short run of zeros, followed by a MiB of padding and
// a syntax error. The slabs are sized from the first window before the
// rest of the body is checked, so the guess must be bounded by the bytes
// left: the declined attempt allocates less than twice the body.
func TestDecodeBatchBoundsReservation(t *testing.T) {
	body := []byte(`{"windows":[{"values":[` + strings.Repeat("0,", 2047) + `0]}` +
		strings.Repeat(" ", 1<<20) + `x`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := decodeBatch(body)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("decodeBatch accepted a body with a syntax error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2*uint64(len(body)) {
		t.Fatalf("declining a %d-byte body allocated %d bytes", len(body), n)
	}
}

// BenchmarkIngestDecode is the decode stage of the verdict path: reading
// and decoding a canonical 64-window JSON body, by the handler's path
// and by the encoding/json calls it replaced.
func BenchmarkIngestDecode(b *testing.B) {
	const windows = 64
	body := marshal(b, Batch{Windows: wireWindows(windows)})
	for _, bc := range []struct {
		name   string
		decode func() error
	}{
		{"wire", func() error {
			m := reqPool.Get().(*reqMem)
			defer m.free()
			_, sl, err := m.readBatch(bytes.NewReader(body), int64(len(body)))
			sl.release(1)
			return err
		}},
		{"encoding_json", func() error {
			_, err := jsonBatch(body)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		})
	}
}

// FuzzDecodeBatch checks decodeBatch against encoding/json: whenever the
// fast decoder accepts a body, the reference decode (DisallowUnknownFields,
// then More) accepts it too and yields the same Batch, bit for bit. A
// reused decoder must decode every body as a fresh one does.
func FuzzDecodeBatch(f *testing.F) {
	ws := wireWindows(64)
	f.Add(marshal(f, Batch{Windows: ws}))
	var encoded bytes.Buffer
	json.NewEncoder(&encoded).Encode(Batch{Tenant: "t-1", Overflow: OverflowReject, Windows: ws[:8]})
	f.Add(encoded.Bytes())
	// The number forms the decoder converts itself, hands to strconv or
	// must decline.
	for _, lit := range []string{
		"-0", "1e3", "-1.25E-3", "9007199254740993", "123456789012345678",
		"1e400", "01", `"nan"`,
	} {
		f.Add([]byte(`{"windows":[{"endpoint":"ep","label":1,"values":[` + lit + `,2]}]}`))
	}
	for _, s := range []string{
		`{"windows":[{"label":1.0,"values":[1]}]}`,
		`{"windows":null}`,
		`{"tenant":null,"windows":[{"values":[1]}]}`,
		`{"Windows":[{"values":[1]}]}`,
		`{}`,
		`{"windows":[]}`,
		`{"windows":[{"values":[1]}]}}`,
		`{"windows":[{"values":[]},{},{"label":-0}]}`,
	} {
		f.Add([]byte(s))
	}
	// The handler's decoders come from a pool: one that has just decoded
	// another input, whose slabs still hold that input's windows, must
	// decode each input exactly as a fresh decoder does.
	priors := [][]byte{marshal(f, Batch{Windows: ws}), encoded.Bytes(),
		[]byte(`{"windows":[{"endpoint":"ep","values":[1,2,3,4,5,6,7,8]},{"label":0,"values":[]}]}`)}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeBatch(body)
		for _, prior := range append(priors, body) {
			var d decoder
			d.decode(prior)
			again, aok := d.decode(body)
			if aok != ok {
				t.Fatalf("after decoding %.40q, a reused decoder reports %v where a fresh one reports %v: %q", prior, aok, ok, body)
			}
			if ok {
				if again.Tenant != got.Tenant || again.Overflow != got.Overflow {
					t.Fatalf("reused decoder: envelope %q/%q, fresh %q/%q", again.Tenant, again.Overflow, got.Tenant, got.Overflow)
				}
				sameWindows(t, again.Windows, got.Windows)
			}
		}
		if !ok {
			return
		}
		want, err := jsonBatch(body)
		if err != nil {
			t.Fatalf("decodeBatch accepted what encoding/json rejects (%v): %q", err, body)
		}
		if got.Tenant != want.Tenant || got.Overflow != want.Overflow {
			t.Fatalf("envelope %q/%q, encoding/json %q/%q", got.Tenant, got.Overflow, want.Tenant, want.Overflow)
		}
		sameWindows(t, got.Windows, want.Windows)
	})
}
