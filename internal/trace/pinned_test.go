package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// TestCollectSamplePinned pins the SHA-256 of WriteText for one sample of
// every class, measured with PMU multiplexing on and cache-polluting
// background noise. The benchmark's pinned digests cover only
// multiplex-off, noise-free databases; these hashes extend the guarantee
// that a change to the simulator's speed leaves every reading identical to
// the multiplexing extrapolation and the shared-cache noise path.
func TestCollectSamplePinned(t *testing.T) {
	want := map[workload.Class]string{
		workload.Benign:   "ce4fa12f31367a24e0c60ade8f0b9f8d98029e459eeb409f5a98e382e9744e74",
		workload.Backdoor: "af151fae79c70690d15c7ccfaad940d855062f3eb050a55bdb2333fe59500be2",
		workload.Rootkit:  "27e4b383a3f2035543a87c231912454fe0f1d069f5f075109018ebb63412e3b3",
		workload.Trojan:   "7913028cab5b1b1fe858e2d0920a7c0288819f40ad132e3cdfabb648e61b5eb2",
		workload.Virus:    "2384c322907c2720c583d9e1414c7c00e1c00a5a444b92efcd882a44f059d756",
		workload.Worm:     "1d712e40d90a1232b0025d87768e9c3662406c75be3e35af4145983da2cb92e4",
	}
	cfg := DefaultConfig()
	cfg.NoiseIPC = 0.5
	for _, class := range workload.AllClasses() {
		tr, err := CollectSample(cfg, class, 1)
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[class] {
			t.Errorf("%v: WriteText SHA-256 = %s, want %s", class, got, want[class])
		}
	}
}
