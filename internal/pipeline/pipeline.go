// Package pipeline is the CPU-side software half of the hybrid application:
// column-parallel deconvolution of multiplexed frames.  One frame, or
// several treated as one concatenated column space (multiframe.go), is
// decoded by a set of workers that each own a FrameDecoder; the streaming
// component that feeds it frames off the wire is internal/acqserver.
//
// Frames are decoded in column blocks (DefaultBlockColumns m/z columns at a
// time): workers claim whole blocks with one atomic increment, load the
// block's columns straight into the FWHT decoder's lane-contiguous work
// area, run the blocked kernel, and store the result straight back — or
// reduce it, still in cache, into the frame's drift profile (FramePair) —
// with no per-column allocation, no staging copies, and ~B× less claim
// contention than the per-column scheme (see docs/PERFORMANCE.md).
//
// Every entry point that takes a telemetry registry accepts nil, which
// costs one nil check per event (see BenchmarkTelemetryOverhead in
// internal/telemetry).  Exported families: pipeline_frames_total,
// pipeline_columns_total, pipeline_errors_total, pipeline_block_decode_ns,
// pipeline_column_decode_ns, pipeline_worker_busy_ns_total and
// pipeline_workers (see docs/OBSERVABILITY.md).
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// DefaultBlockColumns is the column-block width of the batched decode
// path: the number of m/z columns gathered into one lane-contiguous tile
// per claim.  16 lanes keep an order-9 work tile (512 rows × 16 lanes ×
// 8 B = 64 KiB) inside L2 while amortizing index arithmetic and the
// atomic claim over the block.
const DefaultBlockColumns = 16

// DecoderFactory builds one decoder per worker, so workers never share
// mutable decoder state.
type DecoderFactory func() (hadamard.Decoder, error)

// frameMetrics bundles the telemetry handles of the column-parallel
// deconvolution path; the zero value (all-nil handles) is the
// un-instrumented no-op configuration.
type frameMetrics struct {
	frames       *telemetry.Counter
	columns      *telemetry.Counter
	errs         *telemetry.Counter
	blockLatency *telemetry.Histogram
	colLatency   *telemetry.Histogram
	workerBusy   *telemetry.Counter
	workers      *telemetry.Gauge
}

// newFrameMetrics resolves the handles once per frame; on a nil registry
// every handle is nil.
func newFrameMetrics(reg *telemetry.Registry) frameMetrics {
	return frameMetrics{
		frames:       reg.Counter("pipeline_frames_total", "frames deconvolved by the CPU pipeline"),
		columns:      reg.Counter("pipeline_columns_total", "m/z columns decoded by the CPU pipeline"),
		errs:         reg.Counter("pipeline_errors_total", "worker errors during frame deconvolution"),
		blockLatency: reg.Histogram("pipeline_block_decode_ns", "per-block software decode latency, nanoseconds"),
		colLatency:   reg.Histogram("pipeline_column_decode_ns", "per-column software decode latency, nanoseconds"),
		workerBusy:   reg.Counter("pipeline_worker_busy_ns_total", "cumulative wall time workers spent decoding, nanoseconds"),
		workers:      reg.Gauge("pipeline_workers", "worker count of the most recent frame deconvolution"),
	}
}

// timed reports whether block decodes need a clock read at all; with a
// nil registry both latency handles are nil and timing is skipped.
func (m *frameMetrics) timed() bool {
	return m.blockLatency != nil || m.colLatency != nil
}

// observeBlock records one decoded block: one observation in the block
// histogram and lanes amortized observations in the per-column histogram,
// so per-column consumers (EXPERIMENTS E3, the fpga-pipeline example) keep
// a count equal to columns decoded.
func (m *frameMetrics) observeBlock(ns int64, lanes int) {
	m.blockLatency.Observe(float64(ns))
	perCol := float64(ns) / float64(lanes)
	for i := 0; i < lanes; i++ {
		m.colLatency.Observe(perCol)
	}
}

// FrameDecoder is a reusable per-worker frame decoding engine: one decoder
// plus the scratch its decode path needs.  A hadamard.FHTDecoder decodes
// tiles in place — frame columns are loaded straight into its work area and
// stored straight back, with no staging tiles and zero steady-state
// allocation; any other decoder is fed column by column (allocation-free
// when it is a hadamard.BatchDecoder).  A FrameDecoder holds mutable
// scratch and must not be shared between goroutines.
type FrameDecoder struct {
	dec   hadamard.Decoder
	fht   *hadamard.FHTDecoder // non-nil: the tile path
	block int
	col   []float64 // column staging for the other decoders
	slots []float64 // a set's first decoder: per-(frame, tile) partial profiles
}

// NewFrameDecoder builds a FrameDecoder from one factory invocation.
// block <= 0 selects DefaultBlockColumns.
func NewFrameDecoder(factory DecoderFactory, block int) (*FrameDecoder, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil decoder factory")
	}
	if block <= 0 {
		block = DefaultBlockColumns
	}
	dec, err := factory()
	if err != nil {
		return nil, err
	}
	fd := &FrameDecoder{dec: dec, block: block}
	fd.fht, _ = dec.(*hadamard.FHTDecoder)
	return fd, nil
}

// NewFrameDecoders builds a set of n FrameDecoders of DefaultBlockColumns,
// one per worker of a DeconvolveFramesWith call.
func NewFrameDecoders(factory DecoderFactory, n int) ([]*FrameDecoder, error) {
	set := make([]*FrameDecoder, n)
	for i := range set {
		fd, err := NewFrameDecoder(factory, DefaultBlockColumns)
		if err != nil {
			return nil, err
		}
		set[i] = fd
	}
	return set, nil
}

// Len reports the decoder's waveform length (frame drift bins).
func (fd *FrameDecoder) Len() int { return fd.dec.Len() }

// BlockColumns reports the column-block width.
func (fd *FrameDecoder) BlockColumns() int { return fd.block }

// DecodeColumns decodes columns [t0, t0+lanes) of src into the same
// columns of dst.  On the tile path this allocates nothing once the
// decoder is warm; lanes may be any value in [1, BlockColumns].
func (fd *FrameDecoder) DecodeColumns(dst, src *instrument.Frame, t0, lanes int) error {
	if src == nil || dst == nil {
		return fmt.Errorf("pipeline: nil frame")
	}
	n := fd.dec.Len()
	if src.DriftBins != n {
		return fmt.Errorf("pipeline: decoder length %d != drift bins %d", n, src.DriftBins)
	}
	if dst.DriftBins != src.DriftBins || dst.TOFBins != src.TOFBins {
		return fmt.Errorf("pipeline: dst frame %dx%d != src %dx%d",
			dst.DriftBins, dst.TOFBins, src.DriftBins, src.TOFBins)
	}
	if t0 < 0 || lanes < 1 || t0+lanes > src.TOFBins {
		return fmt.Errorf("pipeline: column range [%d,%d) outside frame of %d columns", t0, t0+lanes, src.TOFBins)
	}
	return fd.decodeSpan([]frameSpan{{pair: FramePair{Dst: dst, Src: src}}}, nil, t0, lanes)
}

// DeconvolveFrame deconvolves every m/z column of a frame in parallel and
// returns a new frame of recovered arrival distributions.  workers <= 0
// selects GOMAXPROCS.  It is DeconvolveFrameContext without a deadline or
// a registry.
func DeconvolveFrame(f *instrument.Frame, newDecoder DecoderFactory, workers int) (*instrument.Frame, error) {
	return DeconvolveFrameContext(context.Background(), f, newDecoder, workers, nil)
}

// DeconvolveFrameContext is DeconvolveFrame under a context, with decode
// latency, worker utilization and error telemetry recorded into reg (nil
// reg disables instrumentation at ~zero cost).  Each worker checks for
// cancellation before claiming its next column block, so a server deadline
// stops the frame within one block's work per worker and the call returns
// ctx.Err().  If several workers fail, every distinct error is returned,
// joined with errors.Join — no failure is silently dropped.
func DeconvolveFrameContext(ctx context.Context, f *instrument.Frame, newDecoder DecoderFactory, workers int, reg *telemetry.Registry) (*instrument.Frame, error) {
	if f == nil {
		return nil, fmt.Errorf("pipeline: nil frame")
	}
	out := instrument.NewFrame(f.DriftBins, f.TOFBins)
	if err := DeconvolveFrameIntoContext(ctx, out, f, newDecoder, workers, reg); err != nil {
		return nil, err
	}
	return out, nil
}

// DeconvolveFrameIntoContext deconvolves f into the caller-owned dst frame
// (same geometry as f, typically from an instrument.FramePool), so the
// steady-state serving path allocates no output frame: it is
// DeconvolveFramesIntoContext with one pair.  workers <= 0 selects
// GOMAXPROCS; the count is clamped to the number of column blocks.  On
// error dst holds partial results and must not be used.
func DeconvolveFrameIntoContext(ctx context.Context, dst, f *instrument.Frame, newDecoder DecoderFactory, workers int, reg *telemetry.Registry) error {
	if f == nil || dst == nil {
		return fmt.Errorf("pipeline: nil frame")
	}
	return DeconvolveFramesIntoContext(ctx, []FramePair{{Dst: dst, Src: f}}, newDecoder, workers, reg)
}
