// word_test.go: the eight-cells-per-step delta path against the
// byte-at-a-time reference at the places a word can go wrong — a
// continuation byte at each position of the word, words cut by a window
// refill at every offset, fewer than eight cells left, ten-byte varints
// (legal and overflowing) inside a word, and, for ReadRowSums and its
// count bound, running sums that sit on int32's edges or cross them inside
// a run of one-byte words or at a two-byte varint inside a word.
// The same shapes are in the seed corpora of FuzzRead and
// FuzzReadMatchesReference (testdata/fuzz).
package frameio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// zz appends n one-byte deltas that alternate +33 / -33 ('B', 'A'), so a
// long run of them keeps the running cell value bounded.
func zz(b []byte, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, "BA"[i%2])
	}
	return b
}

// wordPathFrames builds the delta frames of the file comment, by name.
func wordPathFrames() map[string][]byte {
	frames := map[string][]byte{}
	// Successive words carry their first continuation byte at positions
	// 0..7: p one-byte cells, then a two-byte one the next word starts after.
	data, cells := []byte(nil), 0
	for p := 0; p < 8; p++ {
		data = binary.AppendVarint(zz(data, p), int64(300+p))
		cells += p + 1
	}
	data, cells = zz(data, 11), cells+11
	frames["continuation-at-each-position"] = append(deltaHeader(1, uint32(cells)), data...)
	// One to seven cells left after a full word, with a word's worth of a
	// following message behind them that must not be decoded as cells.
	for left := 1; left <= 7; left++ {
		frames[fmt.Sprintf("cells-left-%d", left)] = append(zz(deltaHeader(1, uint32(8+left)), 8+left), "CCCCCCCC"...)
	}
	// Ten-byte varints inside a word: the two extreme deltas, then an
	// overflowing one (rejected at cell 2 by both decoders).
	data = binary.AppendVarint(zz(deltaHeader(1, 20), 3), math.MinInt64)
	data = binary.AppendVarint(zz(data, 2), math.MaxInt64)
	frames["ten-byte-varint-in-word"] = zz(data, 13)
	data = append(zz(deltaHeader(1, 16), 2), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
	frames["overflowing-varint-in-word"] = zz(data, 13)
	// More one-byte cells than a window holds, with a two-byte one every
	// 1021 cells so that words meet the refill at changing alignments.
	const big = 40 * 1024
	data = deltaHeader(40, 1024)
	for i := 0; i < big; i++ {
		if i%1021 == 1020 {
			data = binary.AppendVarint(data, 77)
		} else {
			data = append(data, "BA"[i%2])
		}
	}
	frames["word-straddles-window-refill"] = data
	// Running sums that leave int32 inside a run of one-byte words — up
	// from just inside the range where a word may start, down likewise —
	// which lose the count bound at the crossing cell, after the word step
	// has handed the run to the cell-at-a-time one.
	data = binary.AppendVarint(deltaHeader(2, 20), 1<<31-1-8*64-10)
	frames["sum-crosses-int32-up"] = zzUp(data, 39, 'B')
	data = binary.AppendVarint(deltaHeader(2, 20), -(1<<31)+8*64+10)
	frames["sum-crosses-int32-down"] = zzUp(data, 39, 'A')
	// A two-byte varint inside a word that takes the sum out of int32,
	// up and down, after one-byte cells the word step has summed.
	data = binary.AppendVarint(deltaHeader(1, 20), 1<<31-1-600)
	data = binary.AppendVarint(zzUp(data, 3, 'B'), 8000)
	frames["two-byte-varint-crosses-int32-up"] = zzUp(data, 15, 'A')
	data = binary.AppendVarint(deltaHeader(1, 20), -(1<<31)+600)
	data = binary.AppendVarint(zzUp(data, 3, 'A'), -8000)
	frames["two-byte-varint-crosses-int32-down"] = zzUp(data, 15, 'B')
	// Sums exactly on int32's edges, with word runs beside them: counts.
	data = binary.AppendVarint(deltaHeader(3, 12), math.MaxInt32)
	data = binary.AppendVarint(append(data, make([]byte, 16)...), -(1<<32 - 1))
	frames["sum-on-int32-edges"] = zz(append(data, make([]byte, 2)...), 16)
	return frames
}

func TestDeltaWordPathMatchesReference(t *testing.T) {
	for name, data := range wordPathFrames() {
		t.Run(name, func(t *testing.T) {
			// Chunk sizes around the word length put a refill at every
			// offset within a word; the plain reader fills whole windows.
			checkAgainstReference(t, data, fuzzLimits,
				chunked(1), chunked(7), chunked(8), chunked(9), chunked(13), chunked(64), chunked(windowSize-5))
			if len(data) > 4096 {
				return
			}
			// Cut anywhere: the reference's verdict and exact error, cell
			// index and EOF class included (the two name an overflow
			// differently after the cell index).
			for cut := 0; cut < len(data); cut++ {
				_, _, wantErr := readReference(bytes.NewReader(data[:cut]), fuzzLimits)
				for _, mk := range []func([]byte) io.Reader{chunked(9), chunked(windowSize)} {
					got, _, err := ReadLimited(mk(data[:cut]), fuzzLimits)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("cut %d: new %v, reference %v", cut, err, wantErr)
					}
					checkRowSums(t, mk, data[:cut], fuzzLimits, got, err)
					if errors.Is(err, errVarintOverflow) {
						if cell, _, _ := strings.Cut(err.Error(), ": frameio: varint"); !strings.HasPrefix(wantErr.Error(), cell+": ") {
							t.Fatalf("cut %d: error %q, reference %q", cut, err, wantErr)
						}
						continue
					}
					if err != nil && (err.Error() != wantErr.Error() ||
						errors.Is(err, io.EOF) != errors.Is(wantErr, io.EOF) ||
						errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF)) {
						t.Fatalf("cut %d: error %q, reference %q", cut, err, wantErr)
					}
				}
			}
		})
	}
}

// zzUp appends n copies of the one-byte delta b: 'B' is +33, 'A' is −33.
func zzUp(data []byte, n int, b byte) []byte {
	for i := 0; i < n; i++ {
		data = append(data, b)
	}
	return data
}

// stingyReader hands out its bytes eight at a time and fails the test if it
// is asked for more after the frame's last byte has been delivered: the
// word path must not turn "eight cells remain" into "wait for eight bytes".
type stingyReader struct {
	t    *testing.T
	data []byte
}

func (r *stingyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		r.t.Fatal("decoder asked for bytes past the frame's end")
	}
	n := copy(p[:min(len(p), 8)], r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestDeltaWordPathNeverWaitsPastFrame(t *testing.T) {
	for name, data := range wordPathFrames() {
		if name == "overflowing-varint-in-word" || strings.HasPrefix(name, "cells-left-") {
			continue // rejected, or carries a following message's bytes
		}
		if _, _, err := ReadLimited(&stingyReader{t: t, data: data}, fuzzLimits); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, bound := range []*int64{nil, new(int64)} {
			if _, _, _, err := ReadRowSums(&stingyReader{t: t, data: data}, fuzzLimits, make([]float64, 64), bound); err != nil {
				t.Errorf("%s: ReadRowSums (bound %v): %v", name, bound != nil, err)
			}
		}
	}
}
