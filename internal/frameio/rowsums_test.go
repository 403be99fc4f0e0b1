// rowsums_test.go: ReadRowSums against the drift profile of the frame
// ReadInto decodes from the same bytes, under math.Float64bits — on random
// frames of either encoding whose cells reach 10^17, with fractions, −0,
// NaN and ±Inf in Raw frames, through a one-byte reader; on a row too
// long for its int64 sum to be exact in float64; and the count bound's
// distance from max|cell|.
package frameio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/instrument"
)

// rowSumsFrame is a random drift × tof frame: small counts, runs of equal
// cells (one-byte deltas, the word step), counts past int32 and up to
// 10^17, and, when raw, fractions, −0, NaN and ±Inf.
func rowSumsFrame(rng *rand.Rand, drift, tof int, raw bool) *instrument.Frame {
	f := instrument.NewFrame(drift, tof)
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -1e-300}
	scale := []float64{60, 4096, 1 << 31, 1e12, 1e17}[rng.Intn(5)]
	for i := range f.Data {
		switch k := rng.Intn(16); {
		case k < 8 && i > 0:
			f.Data[i] = f.Data[i-1] + float64(rng.Intn(127)-63)
		case k < 14:
			f.Data[i] = math.Round((rng.Float64()*2 - 1) * scale)
		case raw:
			f.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return f
}

func TestReadRowSumsMatchesProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	lim := DefaultLimits()
	for i := 0; i < 4000; i++ {
		enc := Encoding(i % 2)
		f := rowSumsFrame(rng, 1+rng.Intn(9), 1+rng.Intn(40), enc == Raw)
		var buf bytes.Buffer
		if err := Write(&buf, f, nil, enc); err != nil {
			t.Fatal(err)
		}
		want, _, err := ReadLimited(bytes.NewReader(buf.Bytes()), lim)
		if err != nil {
			t.Fatal(err)
		}
		checkRowSums(t, whole, buf.Bytes(), lim, want, nil)
		checkRowSums(t, chunked(1), buf.Bytes(), lim, want, nil)
	}
}

// TestReadRowSumsLongRow: a Delta row of more than 2^22 cells of 2^31 − 1
// sums past 2^53, where float64 rounds; it must round as the reference's
// left-to-right adds do, not as the exact int64 sum would.
func TestReadRowSumsLongRow(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes a 4 Mi-cell row")
	}
	const cells = 1<<22 + 9
	data := deltaHeader(1, cells)
	data = append(data, 0xfe, 0xff, 0xff, 0xff, 0x0f) // zig-zag varint of 2^31 − 1
	data = append(data, make([]byte, cells-1)...)     // then deltas of 0
	want, _, err := ReadLimited(bytes.NewReader(data), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	checkRowSums(t, whole, data, DefaultLimits(), want, nil)
	if float64(int64(cells)*math.MaxInt32) == want.DriftProfile()[0] {
		t.Fatal("the reference sums the row exactly; the fixture no longer rounds")
	}
}

// TestReadRowSumsBoundIsTight: on frames of int32 counts the count bound
// is max|cell| itself for Raw frames and at most 9·64 above it for Delta
// frames (lim's 64 plus a word's 8·64, see deltaRowSums), so a frame the
// fixed-point proof would clear on its exact maximum is not sent to the
// word model by a loose bound.
func TestReadRowSumsBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 2000; i++ {
		enc := Encoding(i % 2)
		f := rowSumsFrame(rng, 1+rng.Intn(9), 1+rng.Intn(300), false)
		var peak float64
		for j, v := range f.Data {
			f.Data[j] = math.Max(math.MinInt32, math.Min(math.MaxInt32, v)) + 0 // + 0: no −0
			peak = math.Max(peak, math.Abs(f.Data[j]))
		}
		var buf bytes.Buffer
		if err := Write(&buf, f, nil, enc); err != nil {
			t.Fatal(err)
		}
		var bound int64
		if _, _, _, err := ReadRowSums(bytes.NewReader(buf.Bytes()), DefaultLimits(), make([]float64, f.DriftBins), &bound); err != nil {
			t.Fatal(err)
		}
		slack := map[Encoding]float64{Raw: 0, Delta: 9 * 64}[enc]
		if float64(bound) < peak || float64(bound) > peak+slack {
			t.Fatalf("%v frame %d: bound %d for max|cell| %v, want at most %v above it", enc, i, bound, peak, slack)
		}
	}
}
