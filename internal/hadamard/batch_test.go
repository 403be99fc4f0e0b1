// batch_test.go: property tests pinning the batched decode path to the
// scalar and naive references (bit-identical, not merely close), plus the
// AllocsPerRun guards that gate the zero-steady-state-allocation contract.
package hadamard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/prs"
)

// batchDecoders builds one of each BatchDecoder implementation for the
// canonical order-n m-sequence.
func batchDecoders(t *testing.T, order int) map[string]BatchDecoder {
	t.Helper()
	seq := prs.MustMSequence(order)
	fht, err := NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	std, err := NewStandardDecoder(seq)
	if err != nil {
		t.Fatal(err)
	}
	wiener, err := NewWienerDecoder(seq, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BatchDecoder{"fht": fht, "standard": std, "wiener": wiener}
}

// randomBlock fills a rows×lanes tile with deterministic noise.
func randomBlock(rng *rand.Rand, rows, lanes int) *ColumnBlock {
	b := NewColumnBlock(rows, lanes)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64() * 500
	}
	return b
}

// column extracts lane l of a block as a contiguous vector.
func column(b *ColumnBlock, l int) []float64 {
	out := make([]float64, b.Rows)
	for r := 0; r < b.Rows; r++ {
		out[r] = b.At(r, l)
	}
	return out
}

// TestDecodeBatchMatchesScalarBitExact is the central property test: for
// every decoder type DecodeTo must equal the scalar Decode bit for bit, and
// every lane of the FHT decoder's DecodeBatch must equal both, across
// several block widths including odd tails (lanes that do not divide the
// column count) and the degenerate single-lane tile.
func TestDecodeBatchMatchesScalarBitExact(t *testing.T) {
	for _, order := range []int{5, 8} {
		n := 1<<order - 1
		rng := rand.New(rand.NewSource(int64(order)))
		for name, dec := range batchDecoders(t, order) {
			for _, lanes := range []int{1, 3, 8, 16, 5} {
				src := randomBlock(rng, n, lanes)
				dst := NewColumnBlock(n, lanes)
				fht, blocked := dec.(*FHTDecoder)
				if blocked {
					if err := fht.DecodeBatch(dst, src); err != nil {
						t.Fatalf("%s order %d lanes %d: %v", name, order, lanes, err)
					}
				}
				for l := 0; l < lanes; l++ {
					y := column(src, l)
					want, err := dec.Decode(y)
					if err != nil {
						t.Fatal(err)
					}
					to := make([]float64, n)
					if err := dec.DecodeTo(to, y); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < n; r++ {
						if got := dst.At(r, l); blocked && got != want[r] {
							t.Fatalf("%s order %d lanes %d lane %d row %d: batch %v != scalar %v",
								name, order, lanes, l, r, got, want[r])
						}
						if to[r] != want[r] {
							t.Fatalf("%s order %d lane %d row %d: DecodeTo %v != Decode %v",
								name, order, l, r, to[r], want[r])
						}
					}
				}
			}
		}
	}
}

// TestDecodeBatchMatchesNaive ties the batch path to the O(N²) references:
// the FHT batch output must match StandardDecoder.DecodeNaive (the direct
// simplex inverse) to within float tolerance, and the blocked FWHT kernel
// must be bit-identical to NaiveWHT-free scalar FWHT.
func TestDecodeBatchMatchesNaive(t *testing.T) {
	const order = 6
	n := 1<<order - 1
	seq := prs.MustMSequence(order)
	fht, err := NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	std, err := NewStandardDecoder(seq)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const lanes = 4
	src := randomBlock(rng, n, lanes)
	dst := NewColumnBlock(n, lanes)
	if err := fht.DecodeBatch(dst, src); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		naive, err := std.DecodeNaive(column(src, l))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			if d := dst.At(r, l) - naive[r]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("lane %d row %d: batch %v vs naive %v", l, r, dst.At(r, l), naive[r])
			}
		}
	}
}

// TestFWHTBlockMatchesScalar checks the blocked butterfly kernel against
// the scalar FWHT lane by lane, bit for bit.
func TestFWHTBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range []int{2, 8, 64, 512} {
		for _, lanes := range []int{1, 2, 7, 16} {
			tile := make([]float64, rows*lanes)
			for i := range tile {
				tile[i] = rng.NormFloat64()
			}
			want := make([][]float64, lanes)
			for l := 0; l < lanes; l++ {
				col := make([]float64, rows)
				for r := 0; r < rows; r++ {
					col[r] = tile[r*lanes+l]
				}
				if err := FWHT(col); err != nil {
					t.Fatal(err)
				}
				want[l] = col
			}
			if err := fwhtBlock(tile, rows, lanes); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				for r := 0; r < rows; r++ {
					if tile[r*lanes+l] != want[l][r] {
						t.Fatalf("rows %d lanes %d lane %d row %d mismatch", rows, lanes, l, r)
					}
				}
			}
		}
	}
}

// TestDecodeBatchDimensionErrors exercises the geometry guards.
func TestDecodeBatchDimensionErrors(t *testing.T) {
	fht, err := NewFHTDecoder(5)
	if err != nil {
		t.Fatal(err)
	}
	n := fht.Len()
	good := NewColumnBlock(n, 2)
	if err := fht.DecodeBatch(nil, good); err == nil {
		t.Error("nil dst accepted")
	}
	if err := fht.DecodeBatch(NewColumnBlock(n+1, 2), good); err == nil {
		t.Error("wrong rows accepted")
	}
	if err := fht.DecodeBatch(NewColumnBlock(n, 3), good); err == nil {
		t.Error("lane mismatch accepted")
	}
	if err := fht.DecodeTo(make([]float64, n-1), make([]float64, n)); err == nil {
		t.Error("short dst accepted")
	}
}

// TestBatchDecodeAllocs is the allocation-regression gate for the hot
// path: once warmed, DecodeTo must not allocate for any decoder type, nor
// the FHT decoder's DecodeBatch.
func TestBatchDecodeAllocs(t *testing.T) {
	const order = 8
	n := 1<<order - 1
	rng := rand.New(rand.NewSource(3))
	for name, dec := range batchDecoders(t, order) {
		const lanes = 8
		src := randomBlock(rng, n, lanes)
		dst := NewColumnBlock(n, lanes)
		y := column(src, 0)
		x := make([]float64, n)
		// Warm the per-decoder scratch.
		if err := dec.DecodeTo(x, y); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := dec.DecodeTo(x, y); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s DecodeTo allocates %g/op", name, a)
		}
		fht, ok := dec.(*FHTDecoder)
		if !ok {
			continue
		}
		if err := fht.DecodeBatch(dst, src); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := fht.DecodeBatch(dst, src); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("DecodeBatch allocates %g/op", a)
		}
	}
}

// TestDecodeToInPlace: DecodeTo may write its answer over its input.
func TestDecodeToInPlace(t *testing.T) {
	dec, err := NewFHTDecoder(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	y := make([]float64, dec.Len())
	for i := range y {
		y[i] = rng.NormFloat64() * 100
	}
	want := make([]float64, dec.Len())
	if err := dec.DecodeTo(want, y); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeTo(y, y); err != nil {
		t.Fatal(err)
	}
	for j := range y {
		if math.Float64bits(y[j]) != math.Float64bits(want[j]) {
			t.Fatalf("x[%d] = %v in place, %v into another slice", j, y[j], want[j])
		}
	}
}

func BenchmarkFHTDecodeTo(b *testing.B) {
	d, err := NewFHTDecoder(10)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, d.Len())
	x := make([]float64, d.Len())
	for i := range y {
		y[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeTo(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFHTDecodeBatch reports per-column cost of the blocked kernel;
// compare with BenchmarkFHTDecodeTo for the batching win alone.
func BenchmarkFHTDecodeBatch(b *testing.B) {
	d, err := NewFHTDecoder(10)
	if err != nil {
		b.Fatal(err)
	}
	const lanes = 16
	src := NewColumnBlock(d.Len(), lanes)
	dst := NewColumnBlock(d.Len(), lanes)
	for i := range src.Data {
		src.Data[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeBatch(dst, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/col")
}

func BenchmarkFHTStoreColumns(b *testing.B) {
	d := transformedTile(b, 16)
	frame := make([]float64, d.Len()*256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StoreColumns(frame, 256, (i%16)*16, 0, 16)
	}
}

// transformedTile returns an order-9 decoder holding a transformed tile of
// integral columns.
func transformedTile(tb testing.TB, lanes int) *FHTDecoder {
	tb.Helper()
	d, err := NewFHTDecoder(9)
	if err != nil {
		tb.Fatal(err)
	}
	src := NewColumnBlock(d.Len(), lanes)
	for i := range src.Data {
		src.Data[i] = float64(i % 97)
	}
	d.BeginTile(lanes)
	d.LoadColumns(src.Data, lanes, 0, 0, lanes)
	if err := d.TransformTile(); err != nil {
		tb.Fatal(err)
	}
	return d
}

func BenchmarkWienerDecodeTo(b *testing.B) {
	seq := prs.MustMSequence(10)
	d, err := NewWienerDecoder(seq, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, d.Len())
	x := make([]float64, d.Len())
	for i := range y {
		y[i] = float64(i % 89)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeTo(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
