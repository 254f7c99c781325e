package obs

import (
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{TraceHi: 0x0123456789abcdef, TraceLo: 0xfedcba9876543210,
		Span: 0x00f067aa0ba902b7, Flags: FlagSampled}
	h := tc.Traceparent()
	if want := "00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01"; h != want {
		t.Fatalf("Traceparent() = %q, want %q", h, want)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != tc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", h, got, ok, tc)
	}
}

func TestNewTraceContext(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tc := NewTraceContext()
		if !tc.Valid() || !tc.Sampled() {
			t.Fatalf("fresh context invalid or unsampled: %+v", tc)
		}
		id := tc.TraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q is not 32 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q after %d draws", id, i)
		}
		seen[id] = true
		// Round-trip through the wire form.
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("round trip lost %+v (got %+v, ok=%v)", tc, back, ok)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01"
	cases := []string{
		"",
		"garbage",
		valid[:54],             // truncated
		strings.ToUpper(valid), // uppercase hex is invalid per spec
		"ff-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01", // version ff forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-0123456789abcdeffedcba9876543210-0000000000000000-01", // zero span id
		"00x0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01", // bad dash
		"00-0123456789abcdeffedcba987654321g-00f067aa0ba902b7-01", // non-hex digit
		valid + "-extra", // version 00 must be exactly 55 bytes
		valid + "x",      // trailing junk without a dash
	}
	for _, c := range cases {
		if tc, ok := ParseTraceparent(c); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v, want reject", c, tc)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Higher versions may append fields after the flags; version 00 data
	// must still parse from the known prefix.
	h := "cc-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01-what-ever"
	tc, ok := ParseTraceparent(h)
	if !ok || !tc.Valid() || !tc.Sampled() {
		t.Fatalf("future-version traceparent rejected: %+v, ok=%v", tc, ok)
	}
}

// FuzzParseTraceparent is the graceful-degradation property behind the
// ingest handler: any header value either parses to a valid context or
// is rejected — no panics, and accepted values survive a re-render
// round trip. Malformed inputs therefore degrade to a fresh root trace
// rather than a 400.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more")
	f.Add("")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add(strings.Repeat("0-", 40))
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected input %q returned non-zero context %+v", h, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted input %q produced invalid context %+v", h, tc)
		}
		back, ok2 := ParseTraceparent(tc.Traceparent())
		if !ok2 || back != tc {
			t.Fatalf("re-render of %q did not round-trip: %+v vs %+v", h, tc, back)
		}
	})
}
