// multiframe_test.go: the cross-frame batched decode must be bit-identical
// to decoding each frame alone and to the scalar references, including when
// tiles straddle frame boundaries, on both the tile and per-column paths.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/prs"
)

// scalarOnly hides a decoder's blocked kernel so tests can force the
// per-column fallback path.
type scalarOnly struct{ hadamard.Decoder }

func multiframeFixture(t *testing.T, order int, widths []int) []FramePair {
	t.Helper()
	n := 1<<order - 1
	rng := rand.New(rand.NewSource(int64(len(widths))))
	pairs := make([]FramePair, len(widths))
	for i, w := range widths {
		src := instrument.NewFrame(n, w)
		for j := range src.Data {
			src.Data[j] = rng.NormFloat64() * 300
		}
		pairs[i] = FramePair{Dst: instrument.NewFrame(n, w), Src: src}
	}
	return pairs
}

// TestDeconvolveFramesMatchesSingle pins the concatenated-column batch
// against per-frame DeconvolveFrame, bit for bit, across width mixes where
// tiles span two and three frames, for 1 and 2 workers, on both decoder
// paths.
func TestDeconvolveFramesMatchesSingle(t *testing.T) {
	const order = 5
	factories := map[string]DecoderFactory{
		"batch": func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) },
		"scalar-fallback": func() (hadamard.Decoder, error) {
			d, err := hadamard.NewFHTDecoder(order)
			if err != nil {
				return nil, err
			}
			return scalarOnly{d}, nil
		},
	}
	for name, factory := range factories {
		for _, widths := range [][]int{
			{40},             // single frame, tail block
			{5, 16, 7},       // every tile spans a boundary
			{3, 3, 3, 3, 3},  // frames narrower than one tile
			{16, 32},         // aligned boundaries
			{1, 47, 2, 1, 9}, // ragged mix
		} {
			for _, workers := range []int{1, 2} {
				pairs := multiframeFixture(t, order, widths)
				if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, workers, nil); err != nil {
					t.Fatalf("%s widths %v workers %d: %v", name, widths, workers, err)
				}
				for i, p := range pairs {
					want, err := DeconvolveFrame(p.Src, factory, 1)
					if err != nil {
						t.Fatal(err)
					}
					for j, v := range p.Dst.Data {
						if v != want.Data[j] {
							t.Fatalf("%s widths %v workers %d frame %d cell %d: batch %v != single %v",
								name, widths, workers, i, j, v, want.Data[j])
						}
					}
				}
			}
		}
	}
}

// TestDeconvolveFramesValidation exercises the geometry and input guards.
func TestDeconvolveFramesValidation(t *testing.T) {
	const order = 5
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	ctx := context.Background()
	if err := DeconvolveFramesIntoContext(ctx, nil, factory, 1, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	n := 1<<order - 1
	good := FramePair{Dst: instrument.NewFrame(n, 4), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good}, nil, 1, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: good.Src}}, factory, 1, nil); err == nil {
		t.Error("nil dst accepted")
	}
	mismatched := FramePair{Dst: instrument.NewFrame(n, 5), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{mismatched}, factory, 1, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
	other := FramePair{Dst: instrument.NewFrame(2*n+1, 4), Src: instrument.NewFrame(2*n+1, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good, other}, factory, 1, nil); err == nil {
		t.Error("mixed drift-bin batch accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := DeconvolveFramesIntoContext(cancelled, []FramePair{good}, factory, 1, nil); err == nil {
		t.Error("cancelled context not surfaced")
	}
}

// TestTilePathBitExactMatrix pins the staging-free tile path against
// references that share none of it: every output column must equal the
// scalar FHTDecoder.DecodeTo bit for bit on arbitrary floats, and — on
// integral counts, where both inverses are exact — StandardDecoder's
// O(N²) DecodeNaive.  The matrix is TOF widths around the tile width ×
// 1–4 workers × solo, two-frame and three-frame batches (tiles straddle
// the boundaries whenever a width is not a multiple of 16), plus
// DecodeBatch on a gathered tile and a caller-owned decoder set reused
// across every call.
func TestTilePathBitExactMatrix(t *testing.T) {
	const order = 6
	n := 1<<order - 1
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	scalar, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := hadamard.NewStandardDecoder(prs.MustMSequence(order))
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewFrameDecoders(factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	newFrame := func(w int, integral bool) *instrument.Frame {
		f := instrument.NewFrame(n, w)
		for i := range f.Data {
			if integral {
				f.Data[i] = float64(rng.Intn(4096))
			} else {
				f.Data[i] = rng.NormFloat64() * 300
			}
		}
		return f
	}
	// check compares dst's columns with the reference decode of src's.
	col, want := make([]float64, n), make([]float64, n)
	check := func(label string, dst, src *instrument.Frame, integral bool) {
		t.Helper()
		for c := 0; c < src.TOFBins; c++ {
			src.DriftVectorInto(c, col)
			if err := scalar.DecodeTo(want, col); err != nil {
				t.Fatal(err)
			}
			var exact []float64
			if integral {
				if exact, err = naive.DecodeNaive(col); err != nil {
					t.Fatal(err)
				}
			}
			for d := 0; d < n; d++ {
				got := dst.At(d, c)
				if math.Float64bits(got) != math.Float64bits(want[d]) {
					t.Fatalf("%s: column %d row %d = %v, scalar DecodeTo %v", label, c, d, got, want[d])
				}
				if integral && got != exact[d] {
					t.Fatalf("%s: column %d row %d = %v, DecodeNaive %v", label, c, d, got, exact[d])
				}
			}
		}
	}
	ctx := context.Background()
	for _, w := range []int{1, 15, 16, 17, 64, 250, 256} {
		for _, integral := range []bool{false, true} {
			frames := []*instrument.Frame{newFrame(w, integral), newFrame(17, integral), newFrame(w, integral)}
			for workers := 1; workers <= 4; workers++ {
				for batch := 1; batch <= 3; batch++ {
					label := fmt.Sprintf("width %d integral %v workers %d batch %d", w, integral, workers, batch)
					pairs := make([]FramePair, batch)
					for i := range pairs {
						pairs[i] = FramePair{Dst: instrument.NewFrame(n, frames[i].TOFBins), Src: frames[i]}
					}
					if batch == 1 {
						err = DeconvolveFrameIntoContext(ctx, pairs[0].Dst, pairs[0].Src, factory, workers, nil)
					} else {
						err = DeconvolveFramesIntoContext(ctx, pairs, factory, workers, nil)
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, p := range pairs {
						check(label, p.Dst, p.Src, integral)
						clear(p.Dst.Data)
					}
					// The same decode through the reused set.
					if err := DeconvolveFramesWith(ctx, pairs, reused[:workers], nil); err != nil {
						t.Fatalf("%s (reused decoders): %v", label, err)
					}
					for _, p := range pairs {
						check(label+" (reused decoders)", p.Dst, p.Src, integral)
					}
				}
			}
			// DecodeBatch over a gathered tile is the same three steps.
			lanes := min(w, DefaultBlockColumns)
			in, out := hadamard.NewColumnBlock(n, lanes), hadamard.NewColumnBlock(n, lanes)
			frames[0].GatherColumns(0, lanes, in.Data)
			if err := scalar.DecodeBatch(out, in); err != nil {
				t.Fatal(err)
			}
			got := instrument.NewFrame(n, lanes)
			got.ScatterColumns(0, lanes, out.Data)
			head := instrument.NewFrame(n, lanes)
			head.ScatterColumns(0, lanes, in.Data)
			check(fmt.Sprintf("DecodeBatch width %d integral %v", w, integral), got, head, integral)
		}
	}
}

// TestColumnPathMatchesDecodeTo covers the decoders without the tile steps
// (here the FFT-based StandardDecoder): columns go one by one through
// DecodeTo, across frame boundaries, and equal a direct DecodeTo exactly.
func TestColumnPathMatchesDecodeTo(t *testing.T) {
	const order = 5
	n := 1<<order - 1
	seq := prs.MustMSequence(order)
	factory := func() (hadamard.Decoder, error) { return hadamard.NewStandardDecoder(seq) }
	ref, err := hadamard.NewStandardDecoder(seq)
	if err != nil {
		t.Fatal(err)
	}
	pairs := multiframeFixture(t, order, []int{5, 16, 7})
	if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, 2, nil); err != nil {
		t.Fatal(err)
	}
	col, want := make([]float64, n), make([]float64, n)
	for i, p := range pairs {
		for c := 0; c < p.Src.TOFBins; c++ {
			p.Src.DriftVectorInto(c, col)
			if err := ref.DecodeTo(want, col); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < n; d++ {
				if got := p.Dst.At(d, c); got != want[d] {
					t.Fatalf("frame %d column %d row %d: pipeline %v != DecodeTo %v", i, c, d, got, want[d])
				}
			}
		}
	}
}

// TestDeconvolveFramesWithValidation: the caller-owned-decoder entry point
// rejects an empty or mismatched decoder set.
func TestDeconvolveFramesWithValidation(t *testing.T) {
	pairs := multiframeFixture(t, 5, []int{4})
	if err := DeconvolveFramesWith(context.Background(), pairs, nil, nil); err == nil {
		t.Error("empty decoder set accepted")
	}
	fd, err := NewFrameDecoder(func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(6) }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := DeconvolveFramesWith(context.Background(), pairs, []*FrameDecoder{fd}, nil); err == nil {
		t.Error("decoder of the wrong length accepted")
	}
}
