package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/prs"
)

// encodedFrame builds a synthetic multiplexed frame whose every m/z column
// is an encoding of a known arrival distribution, so deconvolution has an
// exact expected output.
func encodedFrame(t testing.TB, order, tofBins int, seed int64) (*instrument.Frame, *instrument.Frame) {
	t.Helper()
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(seed))
	truth := instrument.NewFrame(n, tofBins)
	enc := instrument.NewFrame(n, tofBins)
	for c := 0; c < tofBins; c++ {
		x := make([]float64, n)
		for k := 0; k < 3; k++ {
			x[rng.Intn(n)] = 50 + rng.Float64()*200
		}
		y, err := hadamard.Encode(s, x)
		if err != nil {
			t.Fatal(err)
		}
		truth.SetDriftVector(c, x)
		enc.SetDriftVector(c, y)
	}
	return enc, truth
}

func fhtFactory(order int) DecoderFactory {
	return func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
}

func framesClose(a, b *instrument.Frame, tol float64) bool {
	if a.DriftBins != b.DriftBins || a.TOFBins != b.TOFBins {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestDeconvolveFrameRecoversTruth(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 32, 60)
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := DeconvolveFrame(enc, fhtFactory(6), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !framesClose(got, truth, 1e-6) {
			t.Errorf("workers=%d: deconvolved frame does not match truth", workers)
		}
	}
}

func TestDeconvolveFrameErrors(t *testing.T) {
	if _, err := DeconvolveFrame(nil, fhtFactory(6), 1); err == nil {
		t.Error("nil frame")
	}
	enc, _ := encodedFrame(t, 6, 4, 61)
	if _, err := DeconvolveFrame(enc, nil, 1); err == nil {
		t.Error("nil factory")
	}
	// Wrong decoder length.
	if _, err := DeconvolveFrame(enc, fhtFactory(5), 2); err == nil {
		t.Error("mismatched decoder length should fail")
	}
	// Factory error propagates.
	failing := func() (hadamard.Decoder, error) { return nil, fmt.Errorf("boom") }
	if _, err := DeconvolveFrame(enc, failing, 2); err == nil {
		t.Error("factory error should propagate")
	}
}

func TestDeconvolveFrameMoreWorkersThanColumns(t *testing.T) {
	enc, truth := encodedFrame(t, 5, 3, 62)
	got, err := DeconvolveFrame(enc, fhtFactory(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !framesClose(got, truth, 1e-6) {
		t.Error("oversubscribed workers broke deconvolution")
	}
}

func BenchmarkDeconvolveFrameSerial(b *testing.B) {
	enc, _ := encodedFrame(b, 9, 64, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DeconvolveFrame(enc, fhtFactory(9), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeconvolveFrameParallel(b *testing.B) {
	enc, _ := encodedFrame(b, 9, 64, 401)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DeconvolveFrame(enc, fhtFactory(9), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// countdownCtx reports Canceled starting with the (after+1)-th Err call —
// a deterministic stand-in for a deadline firing mid-frame.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestDeconvolveFrameContextPreCancelled(t *testing.T) {
	f, _ := encodedFrame(t, 5, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DeconvolveFrameContext(ctx, f, func() (hadamard.Decoder, error) {
		return hadamard.NewFHTDecoder(5)
	}, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDeconvolveFrameContextMidRun(t *testing.T) {
	f, _ := encodedFrame(t, 5, 64, 1)
	// One worker: its first pre-column check passes, the second cancels,
	// so the frame is abandoned after exactly one column of work.
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	out, err := DeconvolveFrameContext(ctx, f, func() (hadamard.Decoder, error) {
		return hadamard.NewFHTDecoder(5)
	}, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-frame, got %v", err)
	}
	if out != nil {
		t.Fatal("cancelled deconvolution returned a frame")
	}
}

func TestDeconvolveFrameIntoContextRecoversTruth(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 37, 63) // 37 columns: odd tail block
	var pool instrument.FramePool
	for _, workers := range []int{1, 3, 0} {
		dst := pool.Get(enc.DriftBins, enc.TOFBins)
		if err := DeconvolveFrameIntoContext(context.Background(), dst, enc, fhtFactory(6), workers, nil); err != nil {
			t.Fatal(err)
		}
		if !framesClose(dst, truth, 1e-6) {
			t.Errorf("workers=%d: deconvolved frame does not match truth", workers)
		}
		pool.Put(dst)
	}
}

func TestDeconvolveFrameIntoContextErrors(t *testing.T) {
	enc, _ := encodedFrame(t, 5, 4, 64)
	dst := instrument.NewFrame(enc.DriftBins, enc.TOFBins)
	if err := DeconvolveFrameIntoContext(context.Background(), nil, enc, fhtFactory(5), 1, nil); err == nil {
		t.Error("nil dst accepted")
	}
	if err := DeconvolveFrameIntoContext(context.Background(), dst, nil, fhtFactory(5), 1, nil); err == nil {
		t.Error("nil src accepted")
	}
	bad := instrument.NewFrame(enc.DriftBins, enc.TOFBins+1)
	if err := DeconvolveFrameIntoContext(context.Background(), bad, enc, fhtFactory(5), 1, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// TestFrameDecoderFallbackMatchesBatch routes the same frame through a
// WeightedDecoder (no blocked kernel — exercises the per-column fallback)
// and the batched FHT path; with unit weights the outputs must agree.
func TestFrameDecoderFallbackMatchesBatch(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 19, 65)
	weighted := func() (hadamard.Decoder, error) {
		base, err := hadamard.NewFHTDecoder(6)
		if err != nil {
			return nil, err
		}
		return hadamard.NewWeightedDecoder(base), nil
	}
	fd, err := NewFrameDecoder(weighted, DefaultBlockColumns)
	if err != nil {
		t.Fatal(err)
	}
	out := instrument.NewFrame(enc.DriftBins, enc.TOFBins)
	for t0 := 0; t0 < enc.TOFBins; t0 += fd.BlockColumns() {
		lanes := fd.BlockColumns()
		if t0+lanes > enc.TOFBins {
			lanes = enc.TOFBins - t0
		}
		if err := fd.DecodeColumns(out, enc, t0, lanes); err != nil {
			t.Fatal(err)
		}
	}
	if !framesClose(out, truth, 1e-6) {
		t.Error("fallback path does not recover truth")
	}
}

func TestFrameDecoderDecodeColumnsErrors(t *testing.T) {
	fd, err := NewFrameDecoder(fhtFactory(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := encodedFrame(t, 5, 8, 66)
	out := instrument.NewFrame(enc.DriftBins, enc.TOFBins)
	if err := fd.DecodeColumns(nil, enc, 0, 2); err == nil {
		t.Error("nil dst accepted")
	}
	if err := fd.DecodeColumns(out, enc, 6, 4); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := fd.DecodeColumns(out, enc, 0, 0); err == nil {
		t.Error("zero lanes accepted")
	}
	wrong, _ := encodedFrame(t, 6, 8, 67)
	if err := fd.DecodeColumns(instrument.NewFrame(wrong.DriftBins, wrong.TOFBins), wrong, 0, 2); err == nil {
		t.Error("decoder length mismatch accepted")
	}
	if _, err := NewFrameDecoder(nil, 4); err == nil {
		t.Error("nil factory accepted")
	}
}

// TestFrameDecoderDecodeColumnsAllocs is the pipeline-level allocation
// gate: once the tiles are warm, decoding a block into a caller-owned
// frame must not allocate.
func TestFrameDecoderDecodeColumnsAllocs(t *testing.T) {
	enc, _ := encodedFrame(t, 8, 64, 68)
	fd, err := NewFrameDecoder(fhtFactory(8), DefaultBlockColumns)
	if err != nil {
		t.Fatal(err)
	}
	out := instrument.NewFrame(enc.DriftBins, enc.TOFBins)
	if err := fd.DecodeColumns(out, enc, 0, DefaultBlockColumns); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		for t0 := 0; t0 < enc.TOFBins; t0 += DefaultBlockColumns {
			if err := fd.DecodeColumns(out, enc, t0, DefaultBlockColumns); err != nil {
				t.Fatal(err)
			}
		}
	}); a != 0 {
		t.Errorf("DecodeColumns allocates %g per frame in steady state", a)
	}
}
