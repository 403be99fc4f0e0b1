// butterfly_test.go pins both backends and every element type of Block to
// scalar oracles, bit for bit: hadamard.FWHT per lane for float64, a
// scalar wrapping loop for int64 and int32.  The integer tile step's
// other two passes are pinned the same way: Quantize16 to a scalar proof,
// AddRowSums to a scalar sum.
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

func scalarInt64(col []int64) { scalarInt(col) }

func scalarInt32(col []int32) { scalarInt(col) }

// scalarInt is the two's-complement oracle: the scalar FWHT loop, whose
// adds and subtracts wrap at the element width.
func scalarInt[T int64 | int32](col []T) {
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

func int32Bits(v int32) uint64 { return uint64(uint32(v)) }

// checkBlock transforms a copy of the rows×lanes tile that starts off
// elements into its allocation (so it carries no alignment) and compares
// every lane with the scalar oracle by bit pattern (bitsOf).  The words
// around the tile hold a sentinel that must survive.
func checkBlock[T float64 | int64 | int32](t testing.TB, tile []T, rows, lanes, off int, scalar func([]T), bitsOf func(T) uint64) {
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
// normal floats, and int64s and int32s over their whole range (so sums
// wrap).
func TestBlockMatchesScalar(t *testing.T) {
	eachBackend(t, func() {
		rng := rand.New(rand.NewSource(23))
		geometries(func(rows, lanes, off int) {
			fl := make([]float64, rows*lanes)
			in := make([]int64, rows*lanes)
			i32 := make([]int32, rows*lanes)
			for i := range fl {
				fl[i] = rng.NormFloat64() * 1e3
				in[i] = int64(rng.Uint64())
				i32[i] = int32(rng.Uint32())
			}
			checkBlock(t, fl, rows, lanes, off, scalarFloat64, float64Bits)
			checkBlock(t, in, rows, lanes, off, scalarInt64, int64Bits)
			checkBlock(t, i32, rows, lanes, off, scalarInt32, int32Bits)
		})
	})
}

// TestBlockSpecialValues feeds the values where a vector unit could
// differ from the scalar one if it did anything but the same IEEE or
// two's-complement operation: NaNs with payloads, ±Inf, −0, subnormals,
// MaxFloat64 pairs that overflow to ±Inf; MaxInt64 + 1, MaxInt32 + 1
// and friends.
func TestBlockSpecialValues(t *testing.T) {
	floats := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000deadbeef),
		math.Float64frombits(0x7ff0000000000123), // signalling NaN
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 1, -1, 0x1p-1022, 1e300,
	}
	ints := []int64{math.MaxInt64, 1, math.MinInt64, -1, math.MaxInt64, math.MaxInt64, 0, math.MinInt64, 1 << 62, -(1 << 62)}
	ints32 := []int32{math.MaxInt32, 1, math.MinInt32, -1, math.MaxInt32, math.MaxInt32, 0, math.MinInt32, 1 << 30, -(1 << 30)}
	eachBackend(t, func() {
		rng := rand.New(rand.NewSource(29))
		for _, rows := range []int{2, 4, 8, 16, 64, 512} {
			for _, lanes := range []int{1, 3, 4, 8, 16, 20} {
				// Half the tiles are dense in specials, half mostly
				// finite so NaNs do not swamp every output.
				for _, density := range []int{1, 16} {
					fl := make([]float64, rows*lanes)
					in := make([]int64, rows*lanes)
					i32 := make([]int32, rows*lanes)
					for i := range fl {
						fl[i], in[i], i32[i] = rng.NormFloat64(), rng.Int63n(1000), rng.Int31n(1000)
						if rng.Intn(density) == 0 {
							fl[i], in[i] = floats[rng.Intn(len(floats))], ints[rng.Intn(len(ints))]
							i32[i] = ints32[rng.Intn(len(ints32))]
						}
					}
					checkBlock(t, fl, rows, lanes, lanes%4, scalarFloat64, float64Bits)
					checkBlock(t, in, rows, lanes, lanes%4, scalarInt64, int64Bits)
					checkBlock(t, i32, rows, lanes, lanes%8, scalarInt32, int32Bits)
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
// fuzzer's bytes and checks every element type on both backends against
// the scalar oracles, bit for bit.  Values are decoded from raw bytes so
// the fuzzer reaches NaN payloads, infinities and subnormals, and int64s
// and int32s that wrap.
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
		i32 := make([]int32, rows*lanes)
		var word [8]byte
		for i := range fl {
			for b := 0; b < 8; b++ {
				if len(data) > 0 {
					word[b] = data[(i*8+b)%len(data)]
				}
			}
			u := binary.LittleEndian.Uint64(word[:]) + uint64(i)
			fl[i], in[i], i32[i] = math.Float64frombits(u), int64(u), int32(u>>(u%33))
		}
		eachBackend(t, func() {
			checkBlock(t, fl, rows, lanes, int(lanesB)%4, scalarFloat64, float64Bits)
			checkBlock(t, in, rows, lanes, int(lanesB)%4, scalarInt64, int64Bits)
			checkBlock(t, i32, rows, lanes, int(lanesB)%8, scalarInt32, int32Bits)
		})
	})
}

// quantizeRef is the scalar oracle of Quantize16: the same proof, word by
// word, with every word and every lane's L1 checked in exact arithmetic.
func quantizeRef(work []int32, src []float64, stride int, scatter []int, scale float64, hi int32) bool {
	var l1 [butterfly.QuantizeLanes]float64
	for i, p := range scatter {
		if p < 0 || p >= len(work)/butterfly.QuantizeLanes {
			return false
		}
		for l := range l1 {
			r := src[i*stride+l] * scale
			if r != math.Trunc(r) || math.Abs(r) > float64(hi) {
				return false // NaN fails the first test, ±Inf the second
			}
			work[p*butterfly.QuantizeLanes+l] = int32(r)
			l1[l] += math.Abs(r) // every partial sum below 2^40: exact
		}
	}
	for _, s := range l1 {
		if s > float64(hi) {
			return false
		}
	}
	return true
}

// TestQuantize16MatchesScalar pins the quantize-and-prove pass to
// quantizeRef: the same verdict on tiles built on every edge of the
// proof — fractions, NaN, ±Inf, −0, subnormals, a word at ±hi and one
// past, a lane's L1 at hi and one past, 2^31 and −2^31, a scatter address
// outside work — across scales and bounds, and on a proved tile the same
// int32 word in every scattered row, with the rows it does not scatter to
// untouched.  Without the kernel (the Go backend) nothing is proved.
func TestQuantize16MatchesScalar(t *testing.T) {
	const rows, stride, t0, lane, lanes = 31, 21, 3, 9, butterfly.QuantizeLanes
	nan, inf := math.NaN(), math.Inf(1)
	scatter := make([]int, rows)
	for i := range scatter {
		scatter[i] = (i*7)%rows + 1 // a bijection onto work rows 1..31
	}
	eachBackend(t, func() {
		for _, scale := range []float64{1, 256, 0x1p-3, 0x1p31} {
			for _, hi := range []int32{math.MaxInt32, 1 << 20, 255, 0} {
				h := float64(hi)
				for _, tc := range []struct {
					name string
					raws []float64 // lane `lane`'s nonzero words, after scaling
				}{
					{"integral", []float64{7, -7, 3}},
					{"-0", []float64{math.Copysign(0, -1)}},
					{"fraction", []float64{0.5}},
					{"negative fraction", []float64{-2.25}},
					{"NaN", []float64{nan}},
					{"+Inf", []float64{inf}},
					{"-Inf", []float64{-inf}},
					{"subnormal", []float64{math.SmallestNonzeroFloat64 * scale}},
					{"word = hi", []float64{h}},
					{"word = -hi", []float64{-h}},
					{"word = hi+1", []float64{h + 1}},
					{"word = -hi-1", []float64{-h - 1}},
					{"L1 = hi", []float64{math.Floor(h / 2), -math.Ceil(h / 2)}},
					{"L1 = hi+1", []float64{math.Floor(h/2) + 1, -math.Ceil(h / 2)}},
					{"2^31", []float64{1 << 31}},
					{"-2^31", []float64{-(1 << 31)}},
					{"2^52 + 1", []float64{1<<52 + 1}},
					{"huge", []float64{1e300}},
				} {
					name := fmt.Sprintf("%s scale %g hi %d %s", butterfly.Backend(), scale, hi, tc.name)
					rng := rand.New(rand.NewSource(int64(len(name))))
					src := make([]float64, (rows-1)*stride+t0+lanes)
					for i := 0; i < rows; i++ {
						for l := 0; l < lanes; l++ {
							// Small words, so only the case under test can fail the proof.
							src[i*stride+t0+l] = float64(rng.Intn(3)-1) / scale
						}
						src[i*stride+t0+lane] = 0
					}
					for i, raw := range tc.raws {
						src[i*stride+t0+lane] = raw / scale
					}
					want, got := make([]int32, (rows+1)*lanes), make([]int32, (rows+1)*lanes)
					for i := range got {
						got[i], want[i] = -5, -5 // row 0 is not scattered to: it must survive
					}
					proved := butterfly.Quantize16(got, src[t0:], stride, scatter, scale, hi)
					ok := quantizeRef(want, src[t0:], stride, scatter, scale, hi)
					if butterfly.Backend() == "go" {
						ok = false
					}
					if proved != ok {
						t.Fatalf("%s: proved %v, scalar proof %v", name, proved, ok)
					}
					if !proved {
						continue
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: word %d (row %d) is %d, want %d", name, i, i/lanes, got[i], want[i])
						}
					}
				}
			}
		}
		// A scatter address outside work is not proved, and writes nothing
		// outside work.
		src := make([]float64, rows*stride)
		for _, p := range []int{rows + 1, -1} {
			bad := append([]int(nil), scatter...)
			bad[rows/2] = p
			work := make([]int32, (rows+1)*lanes)
			if butterfly.Quantize16(work, src, stride, bad, 1, math.MaxInt32) {
				t.Errorf("%s: scatter address %d proved", butterfly.Backend(), p)
			}
		}
	})
	for name, call := range map[string]func(){
		"scale 3":      func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 16, []int{1}, 3, 1) },
		"scale 0":      func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 16, []int{1}, 0, 1) },
		"hi < 0":       func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 16, []int{1}, 1, -1) },
		"short src":    func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 31), 16, []int{1, 2}, 1, 1) },
		"stride < 16":  func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 15, []int{1}, 1, 1) },
		"no rows":      func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 16, nil, 1, 1) },
		"scale 2^-600": func() { butterfly.Quantize16(make([]int32, 64), make([]float64, 64), 16, []int{1}, 0x1p-600, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			call()
		}()
	}
}

// TestAddRowSumsMatchesScalar pins the row reduce, on both backends, to
// a scalar int64 sum per row added to what acc held: int32 tiles over the
// whole range (16 lanes of ±2^31 need the widening) at the vector's
// geometry and off it, and int64 tiles, whose sums wrap.  Words past the
// rows summed must stay untouched.
func TestAddRowSumsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	eachBackend(t, func() {
		for _, rows := range []int{0, 1, 3, 4, 8, 12, 512} {
			for _, lanes := range []int{1, 8, 15, 16, 17} {
				x32 := make([]int32, rows*lanes)
				x64 := make([]int64, rows*lanes)
				for i := range x32 {
					x32[i] = int32(rng.Uint32())
					if rng.Intn(4) == 0 {
						x32[i] = []int32{math.MaxInt32, math.MinInt32}[rng.Intn(2)]
					}
					x64[i] = int64(rng.Uint64())
				}
				base := make([]int64, rows+2)
				for i := range base {
					base[i] = int64(rng.Uint64())
				}
				acc32, acc64 := append([]int64(nil), base...), append([]int64(nil), base...)
				butterfly.AddRowSums(acc32, x32, rows, lanes)
				butterfly.AddRowSums(acc64, x64, rows, lanes)
				for r := range base {
					want32, want64 := base[r], base[r]
					for l := 0; r < rows && l < lanes; l++ {
						want32 += int64(x32[r*lanes+l])
						want64 += x64[r*lanes+l]
					}
					if acc32[r] != want32 || acc64[r] != want64 {
						t.Fatalf("%s rows %d lanes %d row %d: int32 tile %d, want %d; int64 tile %d, want %d",
							butterfly.Backend(), rows, lanes, r, acc32[r], want32, acc64[r], want64)
					}
				}
			}
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("acc shorter than the rows accepted")
		}
	}()
	butterfly.AddRowSums(make([]int64, 3), make([]int32, 64), 4, 16)
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
	b.Run("int32", func(b *testing.B) { benchBlock[int32](b, "Gop/s") })
}

func benchBlock[T float64 | int64 | int32](b *testing.B, rateUnit string) {
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

// BenchmarkTileStep times the integer tile step's two other passes on the
// serving geometry, per pass and per cell: Quantize16 reading a 16-column
// tile of a 511 × 256 integral frame (the strided read the served decode
// makes, stride 2 KiB) through the order-9 scatter, and AddRowSums
// reducing the 512 × 16 int32 tile.  The network is BenchmarkButterflyBlock's
// int32 case.
func BenchmarkTileStep(b *testing.B) {
	const order, cols, lanes = 9, 256, butterfly.QuantizeLanes
	n, m := 1<<order-1, 1<<order
	dec, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		b.Fatal(err)
	}
	scatter, _ := dec.Permutations()
	rng := rand.New(rand.NewSource(9))
	frame := make([]float64, n*cols)
	for i := range frame {
		frame[i] = float64(rng.Intn(128))
	}
	work := make([]int32, m*lanes)
	acc := make([]int64, m)
	perCell := func(b *testing.B, cells int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	}
	probed := butterfly.SetAVX2(false)
	defer butterfly.SetAVX2(probed)
	if probed {
		butterfly.SetAVX2(true)
		b.Run("quantize/avx2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t0 := i % (cols / lanes) * lanes
				if !butterfly.Quantize16(work, frame[t0:], cols, scatter, 1, math.MaxInt32) {
					b.Fatal("integral tile not proved")
				}
			}
			perCell(b, n*lanes)
		})
	}
	for _, backend := range []bool{false, probed} {
		butterfly.SetAVX2(backend)
		b.Run("rowsums/"+butterfly.Backend(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				butterfly.AddRowSums(acc, work, m, lanes)
			}
			perCell(b, m*lanes)
		})
		if !probed {
			break
		}
	}
}
