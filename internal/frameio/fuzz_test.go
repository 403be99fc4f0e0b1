// fuzz_test.go: coverage-guided fuzzing of the frame decoder.  The decoder
// is the one place the repository parses attacker-controllable bytes (a
// frameio payload arriving over the acqserver wire), so it must never
// panic, never allocate unboundedly, and must round-trip whatever it
// accepts.  `make fuzz-short` runs a brief pass as part of `make check`.
package frameio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// fuzzLimits keeps the fuzz decode cheap: a malicious header may still
// declare up to 64k cells (512 KiB decoded), so iterations stay fast.
var fuzzLimits = Limits{
	MaxHeaderBytes: 4096,
	MaxDriftBins:   1024,
	MaxTOFBins:     1024,
	MaxCells:       1 << 16,
}

// FuzzRead throws arbitrary bytes at ReadLimited.  Inputs it accepts must
// re-encode (Raw) and decode again to bit-identical cells and identical
// metadata — the decoder's round-trip invariant.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []struct {
		drift, tof int
		meta       Metadata
		enc        Encoding
	}{
		{3, 2, nil, Raw},
		{7, 4, Metadata{"mode": "multiplexed", "order": "3"}, Delta},
		{15, 8, Metadata{"seed": "42"}, Raw},
		{31, 3, nil, Delta},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, countsFrame(rng, seed.drift, seed.tof), seed.meta, seed.enc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Corrupt variants reach the error paths immediately.
	f.Add([]byte("HTIMSFR1"))
	f.Add([]byte("HTIMSFR1\x00\x00\x00\x00"))
	f.Add([]byte("not a frame at all"))
	// An empty metadata key, which Write refuses: must be rejected, not
	// accepted and then fail to re-encode.
	f.Add([]byte("HTIMSFR1\x03\x00\x00\x00\x01\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, meta, err := ReadLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		if frame.DriftBins <= 0 || frame.TOFBins <= 0 ||
			len(frame.Data) != frame.DriftBins*frame.TOFBins {
			t.Fatalf("accepted inconsistent frame %dx%d with %d cells",
				frame.DriftBins, frame.TOFBins, len(frame.Data))
		}
		var buf bytes.Buffer
		if err := Write(&buf, frame, meta, Raw); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		again, meta2, err := ReadLimited(&buf, fuzzLimits)
		if err != nil {
			t.Fatalf("re-decoding re-encoded frame: %v", err)
		}
		if again.DriftBins != frame.DriftBins || again.TOFBins != frame.TOFBins {
			t.Fatalf("round trip changed geometry %dx%d -> %dx%d",
				frame.DriftBins, frame.TOFBins, again.DriftBins, again.TOFBins)
		}
		for i := range frame.Data {
			if math.Float64bits(frame.Data[i]) != math.Float64bits(again.Data[i]) {
				t.Fatalf("round trip changed cell %d: %x -> %x",
					i, math.Float64bits(frame.Data[i]), math.Float64bits(again.Data[i]))
			}
		}
		if len(meta2) != len(meta) {
			t.Fatalf("round trip changed metadata %v -> %v", meta, meta2)
		}
		for k, v := range meta {
			if meta2[k] != v {
				t.Fatalf("round trip changed metadata key %q: %q -> %q", k, v, meta2[k])
			}
		}
	})
}

// TestFuzzSeedsDecode keeps the seed corpus meaningful under plain `go
// test`: the well-formed seeds must decode, streaming from a reader that
// yields one byte at a time (the degenerate net.Conn case).
func TestFuzzSeedsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := countsFrame(rng, 31, 3)
	var buf bytes.Buffer
	if err := Write(&buf, f, Metadata{"k": "v"}, Delta); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadLimited(&chunkReader{data: buf.Bytes(), n: 1}, fuzzLimits)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(got, f) {
		t.Fatal("byte-at-a-time decode corrupted frame")
	}
}
