// butterfly_test.go pins both backends and both element types of Block to
// scalar oracles, bit for bit: hadamard.FWHT per lane for float64, a
// scalar wrapping loop for int64.
package butterfly_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/hadamard"
)

// eachBackend runs f with the Go pass selected and, where the CPU has it,
// again with the AVX2 pass, restoring the probed selection afterwards.
// Failures name the backend through butterfly.Backend().
func eachBackend(t testing.TB, f func()) {
	probed := butterfly.SetAVX2(false)
	defer butterfly.SetAVX2(probed)
	f()
	if !probed {
		t.Log("avx2 half skipped: no AVX2 on this CPU, or the assembly is compiled out (non-amd64, -tags purego)")
		return
	}
	butterfly.SetAVX2(true)
	f()
}

func scalarFloat64(col []float64) {
	if err := hadamard.FWHT(col); err != nil {
		panic(err)
	}
}

func scalarInt64(col []int64) {
	for h := 1; h < len(col); h <<= 1 {
		for i := 0; i < len(col); i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := col[j], col[j+h]
				col[j], col[j+h] = a+b, a-b
			}
		}
	}
}

// float64Bits is the bit pattern the comparison uses, with every NaN
// mapped to one: NaN-ness, and every bit of every non-NaN (−0, subnormals,
// ±Inf), must match the oracle, but which input NaN's payload survives an
// add of two NaNs depends on the operand order of the generated
// instruction, and the compiler is free to commute a float add — two
// pure-Go loops already differ there.  Real waveforms are finite.
func float64Bits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

func int64Bits(v int64) uint64 { return uint64(v) }

// checkBlock transforms a copy of the rows×lanes tile that starts off
// elements into its allocation (so it carries no alignment) and compares
// every lane with the scalar oracle by bit pattern (bitsOf).  The words
// around the tile hold a sentinel that must survive.
func checkBlock[T float64 | int64](t testing.TB, tile []T, rows, lanes, off int, scalar func([]T), bitsOf func(T) uint64) {
	t.Helper()
	const guard = 4
	n := rows * lanes
	buf := make([]T, off+n+guard)
	sentinel := T(-12345)
	for i := range buf {
		buf[i] = sentinel
	}
	got := buf[off : off+n : off+n]
	copy(got, tile)
	butterfly.Block(got, rows, lanes)
	for i, v := range buf {
		if (i < off || i >= off+n) && v != sentinel {
			t.Fatalf("%s rows %d lanes %d off %d: word %d outside the tile overwritten", butterfly.Backend(), rows, lanes, off, i-off)
		}
	}
	col := make([]T, rows)
	for l := 0; l < lanes; l++ {
		for r := range col {
			col[r] = tile[r*lanes+l]
		}
		scalar(col)
		for r, w := range col {
			if g := got[r*lanes+l]; bitsOf(g) != bitsOf(w) {
				t.Fatalf("%s rows %d lanes %d off %d lane %d row %d: %v (bits %x) != scalar %v (bits %x)",
					butterfly.Backend(), rows, lanes, off, l, r, g, bitsOf(g), w, bitsOf(w))
			}
		}
	}
}

// geometries calls f over rows 1 … 4096 (every head-pass case) and lanes
// 1 … 33 (multiples of 4, odd counts, the 16 serving uses), the tile 0–3
// elements off its allocation.  The largest transforms take a sample of
// the lane counts to keep the race-detector run short.
func geometries(f func(rows, lanes, off int)) {
	for logRows := 0; logRows <= 12; logRows++ {
		for lanes := 1; lanes <= 33; lanes++ {
			if logRows > 9 && lanes != 1 && lanes != 3 && lanes != 4 && lanes != 16 && lanes != 17 && lanes != 32 {
				continue
			}
			f(1<<logRows, lanes, (logRows+lanes)%4)
		}
	}
}

// TestBlockMatchesScalar is the equivalence matrix on ordinary data:
// normal floats, and int64s over the whole range (so sums wrap).
func TestBlockMatchesScalar(t *testing.T) {
	eachBackend(t, func() {
		rng := rand.New(rand.NewSource(23))
		geometries(func(rows, lanes, off int) {
			fl := make([]float64, rows*lanes)
			in := make([]int64, rows*lanes)
			for i := range fl {
				fl[i] = rng.NormFloat64() * 1e3
				in[i] = int64(rng.Uint64())
			}
			checkBlock(t, fl, rows, lanes, off, scalarFloat64, float64Bits)
			checkBlock(t, in, rows, lanes, off, scalarInt64, int64Bits)
		})
	})
}

// TestBlockSpecialValues feeds the values where a vector unit could
// differ from the scalar one if it did anything but the same IEEE or
// two's-complement operation: NaNs with payloads, ±Inf, −0, subnormals,
// MaxFloat64 pairs that overflow to ±Inf; MaxInt64 + 1 and friends.
func TestBlockSpecialValues(t *testing.T) {
	floats := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000deadbeef),
		math.Float64frombits(0x7ff0000000000123), // signalling NaN
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 1, -1, 0x1p-1022, 1e300,
	}
	ints := []int64{math.MaxInt64, 1, math.MinInt64, -1, math.MaxInt64, math.MaxInt64, 0, math.MinInt64, 1 << 62, -(1 << 62)}
	eachBackend(t, func() {
		rng := rand.New(rand.NewSource(29))
		for _, rows := range []int{2, 4, 8, 16, 64, 512} {
			for _, lanes := range []int{1, 3, 4, 8, 16, 20} {
				// Half the tiles are dense in specials, half mostly
				// finite so NaNs do not swamp every output.
				for _, density := range []int{1, 16} {
					fl := make([]float64, rows*lanes)
					in := make([]int64, rows*lanes)
					for i := range fl {
						fl[i], in[i] = rng.NormFloat64(), rng.Int63n(1000)
						if rng.Intn(density) == 0 {
							fl[i], in[i] = floats[rng.Intn(len(floats))], ints[rng.Intn(len(ints))]
						}
					}
					checkBlock(t, fl, rows, lanes, lanes%4, scalarFloat64, float64Bits)
					checkBlock(t, in, rows, lanes, lanes%4, scalarInt64, int64Bits)
				}
			}
		}
	})
}

// TestBlockGeometry pins the backstop: a tile that is not a power-of-two
// rows × lanes inside x panics before any element moves, and the empty
// tiles are no-ops.
func TestBlockGeometry(t *testing.T) {
	eachBackend(t, func() {
		for _, c := range []struct{ n, rows, lanes int }{
			{6, 3, 2}, {8, 0, 1}, {8, -8, 1}, {8, 8, -1}, {7, 8, 1}, {15, 8, 2}, {63, 8, 8}, {8, 8, math.MaxInt / 4},
		} {
			x := make([]float64, c.n)
			for i := range x {
				x[i] = 1
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: len %d rows %d lanes %d accepted", butterfly.Backend(), c.n, c.rows, c.lanes)
					}
				}()
				butterfly.Block(x, c.rows, c.lanes)
			}()
			for i, v := range x {
				if v != 1 {
					t.Errorf("len %d rows %d lanes %d: x[%d] written before the panic", c.n, c.rows, c.lanes, i)
				}
			}
		}
		butterfly.Block([]int64(nil), 8, 0)
		butterfly.Block([]float64{}, 1, 0)
		one := []int64{7}
		if butterfly.Block(one, 1, 1); one[0] != 7 {
			t.Errorf("1×1 tile changed to %d", one[0])
		}
	})
}

// FuzzBlockMatchesScalar derives a tile geometry and contents from the
// fuzzer's bytes and checks both element types on both backends against
// the scalar oracles, bit for bit.  Values are decoded from raw bytes so
// the fuzzer reaches NaN payloads, infinities and subnormals, and int64s
// that wrap.
func FuzzBlockMatchesScalar(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte("seed-corpus-entry-one"))
	f.Add(uint8(9), uint8(16), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(0), uint8(1), []byte{0xff, 0x7f})
	f.Add(uint8(6), uint8(3), []byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, logRows, lanesB uint8, data []byte) {
		rows := 1 << (int(logRows) % 11) // 1 .. 1024
		lanes := int(lanesB)%24 + 1      // 1 .. 24
		fl := make([]float64, rows*lanes)
		in := make([]int64, rows*lanes)
		var word [8]byte
		for i := range fl {
			for b := 0; b < 8; b++ {
				if len(data) > 0 {
					word[b] = data[(i*8+b)%len(data)]
				}
			}
			u := binary.LittleEndian.Uint64(word[:]) + uint64(i)
			fl[i], in[i] = math.Float64frombits(u), int64(u)
		}
		eachBackend(t, func() {
			checkBlock(t, fl, rows, lanes, int(lanesB)%4, scalarFloat64, float64Bits)
			checkBlock(t, in, rows, lanes, int(lanesB)%4, scalarInt64, int64Bits)
		})
	})
}

// BenchmarkButterflyBlock times the transform alone on the serving tile
// (order 9, 16 lanes, 64 KiB) per element type and backend.  The tile is
// transformed in place over and over; a ±1 pattern is restored outside
// the timer every 64 transforms, before float64 magnitudes (×512 each)
// could leave the finite range.
func BenchmarkButterflyBlock(b *testing.B) {
	fmt.Printf("fwht_backend: %s\n", butterfly.Backend())
	b.Run("float64", func(b *testing.B) { benchBlock[float64](b, "GFLOP/s") })
	b.Run("int64", func(b *testing.B) { benchBlock[int64](b, "Gop/s") })
}

func benchBlock[T float64 | int64](b *testing.B, rateUnit string) {
	const rows, lanes, logRows = 512, 16, 9
	src := make([]T, rows*lanes)
	for i := range src {
		src[i] = T(1 - 2*(i*7%3%2))
	}
	work := make([]T, len(src))
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				b.StopTimer()
				copy(work, src)
				b.StartTimer()
			}
			butterfly.Block(work, rows, lanes)
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(ns/lanes, "ns/col")
		b.ReportMetric(rows*logRows*lanes/ns, rateUnit)
	}
	probed := butterfly.SetAVX2(false)
	defer butterfly.SetAVX2(probed)
	b.Run("go", run)
	if probed {
		butterfly.SetAVX2(true)
		b.Run("avx2", run)
	}
}
