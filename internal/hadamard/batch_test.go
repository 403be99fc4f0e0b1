// batch_test.go: property tests pinning the batched decode path to the
// scalar and naive references (bit-identical, not merely close), plus the
// AllocsPerRun guards that gate the zero-steady-state-allocation contract.
package hadamard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/butterfly"
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
// the FHT decoder's DecodeBatch and reducing tile step.
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
		fht.ReduceColumns(x, 0, lanes) // DecodeBatch left its tile transformed
		if a := testing.AllocsPerRun(20, func() { fht.ReduceColumns(x, 0, lanes) }); a != 0 {
			t.Errorf("ReduceColumns allocates %g/op", a)
		}
		wide := randomBlock(rng, n, 16)
		for i := range wide.Data {
			wide.Data[i] = math.Round(wide.Data[i])
		}
		fht.ReduceIntegralColumns(x, wide.Data, 16, 0, 16)
		if a := testing.AllocsPerRun(20, func() { fht.ReduceIntegralColumns(x, wide.Data, 16, 0, 16) }); a != 0 {
			t.Errorf("ReduceIntegralColumns allocates %g/op", a)
		}
	}
}

// TestReduceIntegralColumnsMatchesFloat pins the integer tile step to the
// float steps it stands in for: on a 16-column tile of a wider matrix it
// must prove exactly the tiles whose cells are all integers with every
// column's L1 below 2^31 (where the build has the kernel; nowhere
// otherwise), add to sum, bit for bit, what BeginTile, LoadColumns,
// TransformTile and ReduceColumns add — on top of what sum held — and
// leave sum untouched when it declines.
func TestReduceIntegralColumnsMatchesFloat(t *testing.T) {
	const order, stride, t0, lanes, lane = 7, 21, 3, 16, 6
	dec, err := NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	n := dec.Len()
	kernel := butterfly.Backend() == "avx2"
	for _, tc := range []struct {
		name   string
		cells  []float64 // lane `lane`'s first cells
		k      int
		proved bool
	}{
		{"integral", []float64{5, -3, 4095}, lanes, true},
		{"-0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, lanes, true},
		{"L1 = 2^31-1", []float64{1 << 30, -(1<<30 - 1)}, lanes, true},
		{"L1 = 2^31", []float64{1 << 30, -(1 << 30)}, lanes, false},
		{"cell = -2^31", []float64{-(1 << 31)}, lanes, false},
		{"fraction", []float64{0.5}, lanes, false},
		{"NaN", []float64{math.NaN()}, lanes, false},
		{"+Inf", []float64{math.Inf(1)}, lanes, false},
		{"-Inf", []float64{math.Inf(-1)}, lanes, false},
		{"narrow tile", nil, lanes - 1, false},
	} {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		src := make([]float64, n*stride)
		for i := range src {
			src[i] = float64(rng.Intn(300))
		}
		for i := 0; i < n; i++ {
			src[i*stride+t0+lane] = 0
		}
		for i, v := range tc.cells {
			src[i*stride+t0+lane] = v
		}
		got, want := make([]float64, n), make([]float64, n)
		for j := range got {
			got[j] = float64(j) - 0.25
			want[j] = got[j]
		}
		proved := dec.ReduceIntegralColumns(got, src, stride, t0, tc.k)
		if proved != (tc.proved && kernel) {
			t.Fatalf("%s: proved %v, want %v (kernel %v)", tc.name, proved, tc.proved && kernel, kernel)
		}
		if proved {
			dec.BeginTile(lanes)
			dec.LoadColumns(src, stride, t0, 0, lanes)
			if err := dec.TransformTile(); err != nil {
				t.Fatal(err)
			}
			dec.ReduceColumns(want, 0, lanes)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: sum[%d] = %v, float steps %v", tc.name, j, got[j], want[j])
			}
		}
	}
}

// TestReduceColumnsMatchesScalarDecode pins the reducing tile step to the
// scalar decoder: for integral columns (exactly summable, see
// ReduceColumns) the sum it adds for lanes [l0, l0+k) must equal, bit for
// bit, the left-to-right sum of DecodeTo's outputs for those lanes — for
// every lane range shape around the 8-lane step, at lane offsets inside
// wider tiles, and accumulated on top of what sum already held.  It must
// also leave the tile intact for a StoreColumns of the same lanes.
func TestReduceColumnsMatchesScalarDecode(t *testing.T) {
	const order = 7
	tile, err := NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	n := tile.Len()
	rng := rand.New(rand.NewSource(8))
	for _, lanes := range []int{1, 7, 8, 9, 16, 23} {
		src := NewColumnBlock(n, lanes)
		for i := range src.Data {
			src.Data[i] = float64(rng.Intn(1 << 20))
		}
		decoded := make([][]float64, lanes)
		for l := range decoded {
			decoded[l] = make([]float64, n)
			if err := scalar.DecodeTo(decoded[l], column(src, l)); err != nil {
				t.Fatal(err)
			}
		}
		tile.BeginTile(lanes)
		tile.LoadColumns(src.Data, lanes, 0, 0, lanes)
		if err := tile.TransformTile(); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, lanes}, {0, 1}, {lanes - 1, 1}, {lanes / 2, lanes - lanes/2}, {1, lanes - 1}} {
			l0, k := r[0], r[1]
			if k < 1 || l0+k > lanes {
				continue
			}
			sum := make([]float64, n)
			for j := range sum {
				sum[j] = float64(j)
			}
			tile.ReduceColumns(sum, l0, k)
			for j := range sum {
				want := float64(j)
				var row float64
				for l := l0; l < l0+k; l++ {
					row += decoded[l][j]
				}
				want += row
				if math.Float64bits(sum[j]) != math.Float64bits(want) {
					t.Fatalf("lanes %d range [%d,%d): sum[%d] = %v, scalar decode sums to %v", lanes, l0, l0+k, j, sum[j], want)
				}
			}
		}
		out := NewColumnBlock(n, lanes)
		tile.StoreColumns(out.Data, lanes, 0, 0, lanes)
		for l := range decoded {
			for j, want := range decoded[l] {
				if got := out.At(j, l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lanes %d: after ReduceColumns, StoreColumns lane %d row %d = %v, want %v", lanes, l, j, got, want)
				}
			}
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

// BenchmarkFHTReduceColumns times the reducing tile step alone on an
// order-9, 16-lane tile (64 KiB, cache-hot): the cost per tile of turning
// a transformed tile into drift-profile partial sums instead of storing it
// (BenchmarkFHTStoreColumns, which also pays the strided frame write).
func BenchmarkFHTReduceColumns(b *testing.B) {
	d, sum := transformedTile(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReduceColumns(sum, 0, 16)
	}
}

func BenchmarkFHTStoreColumns(b *testing.B) {
	d, _ := transformedTile(b, 16)
	frame := make([]float64, d.Len()*256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StoreColumns(frame, 256, (i%16)*16, 0, 16)
	}
}

// transformedTile returns an order-9 decoder holding a transformed tile of
// integral columns, and a zeroed profile to reduce it into.
func transformedTile(tb testing.TB, lanes int) (*FHTDecoder, []float64) {
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
	return d, make([]float64, d.Len())
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
