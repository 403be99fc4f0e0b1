// batch_test.go: property and fuzz tests pinning the tile path (plain
// kernel under the headroom bound, saturating levels otherwise) to the
// scalar per-column core — bit-identical results, identical saturation
// accounting and cycle charges — plus the allocation gates for the steady
// serving state.
package fpga

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/hadamard"
)

// batchCorePair builds two identical cores so the batch path's mutable
// counters can be compared against the scalar path's without interference.
func batchCorePair(t *testing.T, order int, g GrowthPolicy) (*FHTCore, *FHTCore) {
	t.Helper()
	mk := func() *FHTCore {
		c, err := NewFHTCore(order, MustQ(23, 8), g, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return mk(), mk()
}

// TestDeconvolveBatchMatchesScalar is the central property test: for both
// growth policies, every lane of DeconvolveBatch must equal DeconvolveTo
// on that lane's column bit for bit, with the same total saturation count
// and the same per-column cycle charge.  Inputs include a saturation-heavy
// block (values far beyond the Q23.8 range) so the overflow paths are
// exercised, not just the clean ones, and a mixed tile (amp 0: 15 lanes
// that provably cannot saturate plus one that does) so one lane failing
// the headroom bound sends the whole tile down the exact path.
func TestDeconvolveBatchMatchesScalar(t *testing.T) {
	for _, g := range []GrowthPolicy{GrowthSaturate, GrowthScalePerStage} {
		for _, amp := range []float64{500, 5e6, 0} { // clean, saturating, mixed
			batch, scalar := batchCorePair(t, 6, g)
			n := batch.Len()
			rng := rand.New(rand.NewSource(int64(amp) + int64(g)))
			for _, lanes := range []int{1, 3, 16} {
				src := hadamard.NewColumnBlock(n, lanes)
				dst := hadamard.NewColumnBlock(n, lanes)
				for i := range src.Data {
					a := amp
					if amp == 0 {
						a = 500
						if i%lanes == lanes-1 {
							a = 5e6
						}
					}
					src.Data[i] = rng.NormFloat64() * a
				}
				cycles, err := batch.DeconvolveBatch(dst, src)
				if err != nil {
					t.Fatalf("growth %v lanes %d: %v", g, lanes, err)
				}
				if want := batch.CyclesPerFrame() * int64(lanes); cycles != want {
					t.Fatalf("growth %v lanes %d: %d cycles, want %d", g, lanes, cycles, want)
				}
				col := make([]float64, n)
				want := make([]float64, n)
				for l := 0; l < lanes; l++ {
					for r := 0; r < n; r++ {
						col[r] = src.At(r, l)
					}
					if _, err := scalar.DeconvolveTo(want, col); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < n; r++ {
						if got := dst.At(r, l); got != want[r] {
							t.Fatalf("growth %v amp %g lanes %d lane %d row %d: batch %v != scalar %v",
								g, amp, lanes, l, r, got, want[r])
						}
					}
				}
				if batch.Saturations() != scalar.Saturations() {
					t.Fatalf("growth %v amp %g lanes %d: batch saturations %d != scalar %d",
						g, amp, lanes, batch.Saturations(), scalar.Saturations())
				}
				if amp != 500 && batch.Saturations() == 0 {
					t.Fatalf("growth %v amp %g lanes %d: saturating input never saturated", g, amp, lanes)
				}
			}
		}
	}
}

// TestDeconvolveBatchGeometryErrors exercises the tile guards.
func TestDeconvolveBatchGeometryErrors(t *testing.T) {
	c, _ := batchCorePair(t, 5, GrowthSaturate)
	n := c.Len()
	good := hadamard.NewColumnBlock(n, 2)
	if _, err := c.DeconvolveBatch(nil, good); err == nil {
		t.Error("nil dst accepted")
	}
	if _, err := c.DeconvolveBatch(good, nil); err == nil {
		t.Error("nil src accepted")
	}
	if _, err := c.DeconvolveBatch(hadamard.NewColumnBlock(n+1, 2), good); err == nil {
		t.Error("wrong dst rows accepted")
	}
	if _, err := c.DeconvolveBatch(hadamard.NewColumnBlock(n, 3), good); err == nil {
		t.Error("lane mismatch accepted")
	}
	bad := hadamard.NewColumnBlock(n, 1)
	bad.Lanes = 0
	if _, err := c.DeconvolveBatch(hadamard.NewColumnBlock(n, 0), bad); err == nil {
		t.Error("zero lanes accepted")
	}
}

// TestDeconvolveBatchAllocs gates the zero-steady-state-allocation
// contract of the batch path (the name keeps it inside make allocgate's
// -run filter).
func TestDeconvolveBatchAllocs(t *testing.T) {
	c, _ := batchCorePair(t, 9, GrowthSaturate)
	n := c.Len()
	src := hadamard.NewColumnBlock(n, 16)
	dst := hadamard.NewColumnBlock(n, 16)
	for i := range src.Data {
		src.Data[i] = float64(i % 211)
	}
	if _, err := c.DeconvolveBatch(dst, src); err != nil { // warm scratch
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := c.DeconvolveBatch(dst, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DeconvolveBatch allocates %g/op", a)
	}
}

// TestDeconvolveColumnsGeometryErrors exercises the strided entry points'
// bounds checks: DeconvolveColumns and, on the same source geometry plus
// a short accumulator, ReduceColumns.
func TestDeconvolveColumnsGeometryErrors(t *testing.T) {
	c, _ := batchCorePair(t, 5, GrowthSaturate)
	n := c.Len()
	m := make([]float64, n*8)
	acc := make([]int64, n+1)
	for _, tc := range []struct {
		name              string
		dst, src          []float64
		stride, t0, lanes int
	}{
		{"zero lanes", m, m, 8, 0, 0},
		{"negative t0", m, m, 8, -1, 2},
		{"columns past the stride", m, m, 8, 7, 2},
		{"lanes overflowing int", m, m, 8, 1, math.MaxInt},
		{"short dst", m[:n*8-1], m, 8, 0, 8},
		{"short src", m, m[:n*8-1], 8, 0, 8},
		{"stride overflowing int", m, m, math.MaxInt, 0, 1},
	} {
		if _, err := c.DeconvolveColumns(tc.dst, tc.src, tc.stride, tc.t0, tc.lanes); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := c.ReduceColumns(acc, tc.src, tc.stride, tc.t0, tc.lanes); err == nil && tc.name != "short dst" {
			t.Errorf("ReduceColumns: %s accepted", tc.name)
		}
	}
	if _, err := c.DeconvolveColumns(m, m, 8, 7, 1); err != nil {
		t.Errorf("last column rejected: %v", err)
	}
	if _, err := c.ReduceColumns(acc, m, 8, 7, 1); err != nil {
		t.Errorf("ReduceColumns: last column rejected: %v", err)
	}
	if _, err := c.ReduceColumns(acc[:n], m, 8, 0, 8); err == nil {
		t.Error("short accumulator accepted")
	}
}

// TestDeconvolveColumnsAllocs gates the zero-steady-state-allocation
// contract of the strided entry points, storing and reducing, on a
// frame-shaped matrix, on both the plain and the exact path (the name
// keeps it inside make allocgate's -run filter).
func TestDeconvolveColumnsAllocs(t *testing.T) {
	c, _ := batchCorePair(t, 9, GrowthSaturate)
	n, stride := c.Len(), 40
	src := make([]float64, n*stride)
	dst := make([]float64, n*stride)
	acc := make([]int64, n+1)
	for i := range src {
		src[i] = float64(i % 211)
	}
	src[5*stride+30] = 1e9 // columns 24.. saturate: exact path
	for _, t0 := range []int{3, 24} {
		for _, reduce := range []bool{false, true} {
			run := func() {
				var err error
				if reduce {
					_, err = c.ReduceColumns(acc, src, stride, t0, 16)
				} else {
					_, err = c.DeconvolveColumns(dst, src, stride, t0, 16)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			run() // warm scratch
			if a := testing.AllocsPerRun(20, run); a != 0 {
				t.Errorf("column %d (reduce %v) allocates %g/op", t0, reduce, a)
			}
		}
	}
	if c.Saturations() == 0 {
		t.Error("exact-path tile never saturated")
	}
}

// TestQuantizeVectorMatchesGo runs pass 1 both ways in one binary — the
// integer tile step's proof attempt (quantize32, butterfly.Quantize16)
// and the Go loop, the oracle — over 16-lane tiles built on each edge of
// the proof, and pins the step's verdict: it proves exactly the tiles
// whose every word is integral with |raw| <= Max and whose every lane
// has L1 <= Max, for the formats whose Max fits int32, and declines every
// tile of a wider format.  A proved tile's int32 words are the Go loop's
// words, the Go loop finds it plain with no saturation, and the attempt
// itself never counts one.
func TestQuantizeVectorMatchesGo(t *testing.T) {
	if butterfly.Backend() != "avx2" {
		t.Skip("no integer tile step in this build or on this machine")
	}
	const order, lanes, t0, stride, lane = 5, 16, 3, 21, 5
	nan, inf := math.NaN(), math.Inf(1)
	for _, format := range []Format{MustQ(23, 8), MustQ(31, 0), MustQ(0, 31), MustQ(12, 8), MustQ(24, 8), MustQ(40, 11)} {
		lsb, hi := format.EpsilonLSB(), format.Max()
		for _, tc := range []struct {
			name   string
			raws   []float64 // lane `lane`'s only nonzero cells, in LSBs
			proved bool
		}{
			{"integral", []float64{7, -7}, true},
			{"-0", []float64{math.Copysign(0, -1)}, true},
			{"fraction", []float64{0.5}, false},
			{"negative fraction", []float64{-2.25}, false},
			{"NaN", []float64{nan}, false},
			{"+Inf", []float64{inf}, false},
			{"-Inf", []float64{-inf}, false},
			{"|raw| = Max", []float64{float64(hi)}, true},
			{"raw = -Max", []float64{-float64(hi)}, true},
			{"|raw| = Max+1", []float64{float64(hi + 1)}, false},
			{"raw = Min", []float64{-float64(hi + 1)}, false},
			{"2^31 - 1", []float64{1<<31 - 1}, hi >= 1<<31-1},
			{"2^31", []float64{1 << 31}, false},
			{"-2^31", []float64{-(1 << 31)}, false},
			{"2^32 + 7", []float64{1<<32 + 7}, false},
			{"L1 = Max", []float64{float64(hi / 2), -float64(hi - hi/2)}, true},
			{"L1 = Max+1", []float64{float64(hi/2 + 1), -float64(hi - hi/2)}, false},
			{"huge", []float64{1e300 / lsb}, false},
		} {
			name := fmt.Sprintf("%v %s", format, tc.name)
			rng := rand.New(rand.NewSource(int64(len(name))))
			n := 1<<order - 1
			src := make([]float64, n*stride)
			for i := range src {
				src[i] = float64(rng.Intn(7)-3) * lsb
			}
			for i := 0; i < n; i++ {
				src[i*stride+t0+lane] = 0
			}
			for i, raw := range tc.raws {
				src[i*stride+t0+lane] = raw * lsb
			}
			vec, err := NewFHTCore(order, format, GrowthSaturate, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewFHTCore(order, format, GrowthSaturate, 1, 1)
			words := make([]int64, (n+1)*lanes)
			proved := vec.quantize32(src, stride, t0, lanes)
			plainGo := ref.quantize(words, src, stride, t0, lanes)

			if want := tc.proved && hi <= math.MaxInt32; (proved != nil) != want {
				t.Errorf("%s: integer step proved %v, want %v", name, proved != nil, want)
			}
			if vec.Saturations() != 0 {
				t.Errorf("%s: the proof attempt counted %d saturations", name, vec.Saturations())
			}
			if proved == nil {
				continue
			}
			if !plainGo || ref.Saturations() != 0 {
				t.Errorf("%s: integer step proved a tile the Go loop finds plain=%v with %d saturations", name, plainGo, ref.Saturations())
			}
			for i, w := range words {
				if int64(proved[i]) != w {
					t.Fatalf("%s: word %d: integer step %d, Go loop %d", name, i, proved[i], w)
				}
			}
		}
	}
}

// tileCase is one generated input for FuzzDeconvolveTileMatchesScalar: a
// core configuration, a tile position inside a wider matrix, and the
// matrix itself.
type tileCase struct {
	order, intBits, fracBits int
	growth                   GrowthPolicy
	stride, t0, lanes        int
	src                      []float64
}

// newTileCase derives a case from the fuzzer's raw arguments.  mode picks
// where saturation happens (see the constants in the body); special is a
// bit set of cell kinds sprinkled on top — the boundaries of the vector
// quantize pass's proof among them (fractions, NaN, ±Inf, −0, |raw| at
// Max and Max+1, 2^51 ± 1).  scatter is the core's address
// ROM, needed to place two inputs so they first meet at a chosen level.
func newTileCase(seed int64, order, width, frac, lanes, pad, mode, special uint8) tileCase {
	tc := tileCase{order: 2 + int(order)%9, lanes: 1 + int(lanes)%17, t0: 1 + int(pad)%5}
	w := 4 + int(width)%37
	tc.fracBits = int(frac) % (w + 1)
	tc.intBits = w - tc.fracBits
	tc.growth = GrowthPolicy(seed & 1)
	tc.stride = tc.t0 + tc.lanes + int(pad/5)%4
	n := 1<<tc.order - 1
	rng := rand.New(rand.NewSource(seed))
	format := MustQ(tc.intBits, tc.fracBits)
	max := format.Max()
	lsb := format.EpsilonLSB()
	tc.src = make([]float64, n*tc.stride)
	for i := range tc.src {
		tc.src[i] = float64(rng.Intn(7) - 3) // neighbours of the tile: never read
	}
	dec, err := NewFHTCore(tc.order, format, tc.growth, 1, 1)
	if err != nil {
		panic(err)
	}
	rowOf := make([]int, n+1) // work address -> input row
	for i, p := range dec.scatter {
		rowOf[p] = i
	}
	for l := 0; l < tc.lanes; l++ {
		col := make([]int64, n) // raw words; converted below
		switch mode % 7 {
		case 0: // never saturates: sum |raw| well under Max
			budget := max / 2
			for k := 0; k < 6 && budget > 0; k++ {
				v := rng.Int63n(budget + 1)
				budget -= v
				if rng.Intn(2) == 0 {
					v = -v
				}
				col[rng.Intn(n)] += v
			}
		case 1: // saturates only in FromFloat: one cell beyond the format
			col[rng.Intn(n)] = 4 * (max + 1)
		case 2, 3: // two words that first meet — and overflow — at one level
			level := tc.order - 1 // mode 3: the last level
			if mode%7 == 2 {
				level = tc.order / 2
			}
			a, b := 1<<level|1, 1
			if level == 0 {
				a, b = 3, 2
			}
			col[rowOf[a]], col[rowOf[b]] = max/2+1, max/2+1
		case 4, 5: // sum |raw| exactly Max (plain path) or Max+1 (exact path)
			left := max + int64(mode%7-4)
			for k := 0; k < 3 && left > 0; k++ { // n >= 3 distinct cells, so L1 is the sum of |v|
				v := rng.Int63n(left + 1)
				if k == 2 {
					v = left
				}
				left -= v
				i := rng.Intn(n)
				for col[i] != 0 {
					i = (i + 1) % n
				}
				if special&1 != 0 && rng.Intn(2) == 0 {
					v = -v
				}
				col[i] = v
			}
		case 6: // dense random words: saturation wherever it falls
			for i := range col {
				col[i] = rng.Int63n(max/4+1) - max/8
			}
		}
		for i, raw := range col {
			tc.src[i*tc.stride+tc.t0+l] = float64(raw) * lsb
		}
		cell := func() *float64 { return &tc.src[rng.Intn(n)*tc.stride+tc.t0+l] }
		if special&2 != 0 {
			*cell() += 0.3 * lsb // fractional: rounds down
			*cell() -= 0.5 * lsb // a tie: rounds away from zero
		}
		if special&4 != 0 && l%3 == 0 {
			*cell() = math.NaN()
		}
		if special&8 != 0 && l%3 == 1 {
			*cell() = math.Inf(1 - 2*rng.Intn(2))
		}
		if special&16 != 0 {
			*cell() = -float64(max+1) * lsb // Format.Min(): |raw| is Max+1
		}
		if special&32 != 0 {
			*cell() = math.Copysign(0, -1)
		}
		if special&64 != 0 {
			*cell() = float64(max) * lsb // |raw| is Max: in range
			if l%2 == 1 {
				*cell() = float64(max+1) * lsb // one past it: saturates
			}
		}
		if special&128 != 0 {
			*cell() = float64(1<<51+1-2*(l%2)) * lsb // 2^51 ± 1, past every fuzzed width
		}
	}
	return tc
}

// FuzzDeconvolveTileMatchesScalar pins DeconvolveColumns to the scalar
// oracle at the saturation edge: for orders 2–10, widths 4–40 bits, both
// growth policies, 1–17 lanes at a non-zero column offset inside a wider
// matrix, and inputs built to saturate nowhere, only in the quantizer,
// only at a middle or the last butterfly level, or to sit exactly on
// either side of the headroom bound (with negative, fractional, NaN and
// ±Inf cells on top), every lane and the saturation count must equal
// DeconvolveTo column by column, and no cell of dst outside the tile's
// columns may be written.
func FuzzDeconvolveTileMatchesScalar(f *testing.F) {
	for mode := uint8(0); mode < 7; mode++ {
		f.Add(int64(mode), uint8(7), uint8(27), uint8(8), uint8(15), uint8(7), mode, uint8(0)) // order 9, Q23.8, 16 lanes
		f.Add(int64(mode)+7, mode, mode*5, mode, mode*3, mode, mode, uint8(31))                // narrow, every special
		f.Add(int64(mode)+100, uint8(8), uint8(36), uint8(40), uint8(16), uint8(19), mode, uint8(1)<<(mode%5))
	}
	for _, special := range []uint8{2, 4, 8, 32, 64, 128, 32 | 64 | 128} { // the vector proof's edges, 16 lanes
		f.Add(int64(special), uint8(7), uint8(27), uint8(8), uint8(15), uint8(7), uint8(0), special)    // Q23.8, clean otherwise
		f.Add(int64(special)+1, uint8(3), uint8(36), uint8(40), uint8(15), uint8(2), uint8(4), special) // Q0.40, a lane at L1 = Max
	}
	for order := uint8(0); order < 9; order++ { // every head/main pass split of the plain kernel
		f.Add(int64(order)*2, order, uint8(20), uint8(4), order, order, uint8(4), uint8(1))
		f.Add(int64(order)*2, order, uint8(20), uint8(4), order, order, uint8(0), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, order, width, frac, lanes, pad, mode, special uint8) {
		tc := newTileCase(seed, order, width, frac, lanes, pad, mode, special)
		format := MustQ(tc.intBits, tc.fracBits)
		mk := func() *FHTCore {
			c, err := NewFHTCore(tc.order, format, tc.growth, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		tile, scalar := mk(), mk()
		n := tile.Len()
		sentinel := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN no result can equal
		dst := make([]float64, n*tc.stride)
		for i := range dst {
			dst[i] = sentinel
		}
		cycles, err := tile.DeconvolveColumns(dst, tc.src, tc.stride, tc.t0, tc.lanes)
		if err != nil {
			t.Fatal(err)
		}
		if want := tile.CyclesPerFrame() * int64(tc.lanes); cycles != want {
			t.Fatalf("%d cycles, want %d", cycles, want)
		}
		col, want := make([]float64, n), make([]float64, n)
		for j := 0; j < tc.stride; j++ {
			inTile := j >= tc.t0 && j < tc.t0+tc.lanes
			if inTile {
				for r := range col {
					col[r] = tc.src[r*tc.stride+j]
				}
				if _, err := scalar.DeconvolveTo(want, col); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < n; r++ {
				got := dst[r*tc.stride+j]
				switch {
				case !inTile && math.Float64bits(got) != math.Float64bits(sentinel):
					t.Fatalf("%v %v: cell (%d,%d) outside tile [%d,%d) written: %v",
						format, tc.growth, r, j, tc.t0, tc.t0+tc.lanes, got)
				case inTile && got != want[r] && !(math.IsNaN(got) && math.IsNaN(want[r])):
					t.Fatalf("%v growth %v order %d mode %d: column %d row %d: tile %v != scalar %v",
						format, tc.growth, tc.order, mode%7, j, r, got, want[r])
				}
			}
		}
		if tile.Saturations() != scalar.Saturations() {
			t.Fatalf("%v growth %v order %d mode %d: tile saturations %d != scalar %d",
				format, tc.growth, tc.order, mode%7, tile.Saturations(), scalar.Saturations())
		}
	})
}

// BenchmarkFHTCoreDeconvolveBatch reports per-column cost of the fused
// tile path; compare with BenchmarkFHTCoreDeconvolve for the
// communication-avoiding win.
func BenchmarkFHTCoreDeconvolveBatch(b *testing.B) {
	c, err := NewFHTCore(9, MustQ(23, 8), GrowthSaturate, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	const lanes = 16
	src := hadamard.NewColumnBlock(c.Len(), lanes)
	dst := hadamard.NewColumnBlock(c.Len(), lanes)
	for i := range src.Data {
		src.Data[i] = float64(i % 211)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DeconvolveBatch(dst, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/col")
}

// TestProvedCountsEdge holds ProvedCounts to its edge
// Len()·bound·2^FracBits = Max for formats whose words fit int32 and
// formats too wide for them: the edge proves, one past it does not, and
// neither does a negative bound (a frame with no count bound) or any
// bound under GrowthScalePerStage, whose per-level shift the proof does
// not model.
func TestProvedCountsEdge(t *testing.T) {
	const order = 5
	n := int64(1<<order - 1)
	for _, f := range []Format{MustQ(12, 0), MustQ(23, 8), MustQ(31, 0), MustQ(40, 11)} {
		edge := f.Max() >> f.FracBits / n
		c, _ := NewFHTCore(order, f, GrowthSaturate, 2, 2)
		if !c.ProvedCounts(edge) || !c.ProvedCounts(0) || c.ProvedCounts(edge+1) || c.ProvedCounts(-1) {
			t.Errorf("%v: ProvedCounts at 0, the edge %d, one past it and −1: %v %v %v %v, want true true false false",
				f, edge, c.ProvedCounts(0), c.ProvedCounts(edge), c.ProvedCounts(edge+1), c.ProvedCounts(-1))
		}
		if n*edge<<f.FracBits > f.Max() || n*(edge+1)<<f.FracBits <= f.Max() {
			t.Errorf("%v: edge %d is not Max / (Len·2^FracBits)", f, edge)
		}
		s, _ := NewFHTCore(order, f, GrowthScalePerStage, 2, 2)
		if s.ProvedCounts(0) {
			t.Errorf("%v: a bound proved under GrowthScalePerStage", f)
		}
	}
}
