// multiframe.go is the one column-block claim loop behind every frame
// deconvolution entry point.  Several frames — typically same-order frames
// from different client sessions, gathered by the acqserver coalescer — are
// decoded as one concatenated column space, with column blocks spanning
// frame boundaries: a batch of narrow frames fills full-width tiles and
// pays one blocked-kernel call per tile instead of one short call per
// frame.  A single frame is the same loop over one pair.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// FramePair couples one source frame with its caller-owned destination
// (same geometry, typically from an instrument.FramePool).
type FramePair struct {
	Dst, Src *instrument.Frame
}

// frameSpan locates one pair in the concatenated column space.
type frameSpan struct {
	pair  FramePair
	start int // first global column
}

// segment clips the tile of lanes global columns starting at g0, whose
// first l0 lanes belong to earlier frames, to this frame: its columns
// [t0, t0+k) fill lanes [l0, l0+k).
func (sp frameSpan) segment(g0, l0, lanes int) (t0, k int) {
	t0 = g0 + l0 - sp.start
	return t0, min(sp.pair.Src.TOFBins-t0, lanes-l0)
}

// DeconvolveFramesIntoContext is DeconvolveFramesWith over throw-away
// decoders, one per worker, built from newDecoder for this call alone;
// callers that decode frame after frame keep a set (NewFrameDecoders) and
// call DeconvolveFramesWith.  workers <= 0 selects GOMAXPROCS.
func DeconvolveFramesIntoContext(ctx context.Context, pairs []FramePair, newDecoder DecoderFactory, workers int, reg *telemetry.Registry) error {
	if len(pairs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := 0
	for _, p := range pairs {
		if p.Src != nil {
			total += p.Src.TOFBins
		}
	}
	// No more decoders than blocks to claim, but at least one, so that an
	// invalid batch still reaches validation.
	blocks := (total + DefaultBlockColumns - 1) / DefaultBlockColumns
	decoders, err := NewFrameDecoders(newDecoder, max(1, min(workers, blocks)))
	if err != nil {
		return err
	}
	return DeconvolveFramesWith(ctx, pairs, decoders, reg)
}

// DeconvolveFramesWith deconvolves every pair's Src into its Dst through
// the caller's decoders, treating the pairs as one concatenated column
// space: each decoder is one worker claiming DefaultBlockColumns-wide
// global column blocks with one atomic increment each, and a block that
// straddles a frame boundary is still one tile.  The calling goroutine is
// the last worker (one decoder spawns nothing), no more decoders are used
// than there are blocks, and all are free again when the call returns.
// Sources must share the decoders' drift-bin count; TOF widths may differ.
// Cancellation stops every worker within one block; every worker's error
// is returned (errors.Join).  On error the destinations hold partial
// results and must not be used.
func DeconvolveFramesWith(ctx context.Context, pairs []FramePair, decoders []*FrameDecoder, reg *telemetry.Registry) error {
	if len(pairs) == 0 {
		return nil
	}
	if len(decoders) == 0 {
		return fmt.Errorf("pipeline: no frame decoders")
	}
	spans := make([]frameSpan, len(pairs))
	total := 0
	for i, p := range pairs {
		if p.Src == nil || p.Dst == nil {
			return fmt.Errorf("pipeline: nil frame in pair %d", i)
		}
		if p.Dst.DriftBins != p.Src.DriftBins || p.Dst.TOFBins != p.Src.TOFBins {
			return fmt.Errorf("pipeline: pair %d dst %dx%d != src %dx%d",
				i, p.Dst.DriftBins, p.Dst.TOFBins, p.Src.DriftBins, p.Src.TOFBins)
		}
		if p.Src.DriftBins != pairs[0].Src.DriftBins {
			return fmt.Errorf("pipeline: pair %d drift bins %d != pair 0's %d",
				i, p.Src.DriftBins, pairs[0].Src.DriftBins)
		}
		spans[i] = frameSpan{pair: p, start: total}
		total += p.Src.TOFBins
	}
	for _, fd := range decoders {
		if fd.Len() != pairs[0].Src.DriftBins {
			return fmt.Errorf("pipeline: decoder length %d != drift bins %d", fd.Len(), pairs[0].Src.DriftBins)
		}
	}
	block := DefaultBlockColumns
	blocks := (total + block - 1) / block
	workers := min(len(decoders), blocks)
	name := "cpu_decode_batch"
	if len(pairs) == 1 {
		name = "cpu_decode"
	}
	span := trace.SpanFromContext(ctx).Child(name)
	span.SetInt("frames", int64(len(pairs)))
	span.SetInt("columns", int64(total))
	span.SetInt("workers", int64(workers))
	span.SetInt("block_columns", int64(block))
	defer span.End()
	m := newFrameMetrics(reg)
	m.workers.Set(float64(workers))

	var next atomic.Int64
	errs := make([]error, workers)
	work := func(w int) {
		busy := m.workerBusy.StartSpan()
		defer busy.Stop()
		fd := decoders[w]
		for {
			if errs[w] = ctx.Err(); errs[w] != nil {
				return
			}
			g0 := (int(next.Add(1)) - 1) * block
			if g0 >= total {
				return
			}
			lanes := min(block, total-g0)
			var start time.Time
			if m.timed() {
				start = time.Now()
			}
			if errs[w] = fd.decodeSpan(spans, g0, lanes); errs[w] != nil {
				return
			}
			if m.timed() {
				m.observeBlock(time.Since(start).Nanoseconds(), lanes)
			}
			m.columns.Add(int64(lanes))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(workers - 1)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, e := range errs {
			if e != nil {
				m.errs.Inc()
			}
		}
		return err
	}
	m.frames.Add(int64(len(pairs)))
	return nil
}

// decodeSpan decodes global columns [g0, g0+lanes) of the concatenated
// column space described by spans.  An FHT decoder takes them as one tile:
// each overlapped frame's segment is loaded into its lane offset, the
// blocked kernel runs once, and the segments are stored back.  Any other
// decoder goes column by column — through DecodeTo, allocation-free, when
// it has one.
func (fd *FrameDecoder) decodeSpan(spans []frameSpan, g0, lanes int) error {
	// First frame overlapping g0: spans are start-ordered, batches are a
	// handful of frames, so a linear scan wins over binary search.
	i := 0
	for i+1 < len(spans) && spans[i+1].start <= g0 {
		i++
	}
	if fd.fht == nil {
		n := fd.Len()
		if cap(fd.col) < 2*n {
			fd.col = make([]float64, 2*n)
		}
		col, x := fd.col[:n], fd.col[n:2*n]
		batch, _ := fd.dec.(hadamard.BatchDecoder)
		for g := g0; g < g0+lanes; g++ {
			for g >= spans[i].start+spans[i].pair.Src.TOFBins {
				i++
			}
			t := g - spans[i].start
			spans[i].pair.Src.DriftVectorInto(t, col)
			var err error
			if batch != nil {
				err = batch.DecodeTo(x, col)
			} else {
				x, err = fd.dec.Decode(col)
			}
			if err != nil {
				return err
			}
			spans[i].pair.Dst.SetDriftVector(t, x)
		}
		return nil
	}
	fd.fht.BeginTile(lanes)
	for l0, j := 0, i; l0 < lanes; j++ {
		t0, k := spans[j].segment(g0, l0, lanes)
		src := spans[j].pair.Src
		fd.fht.LoadColumns(src.Data, src.TOFBins, t0, l0, k)
		l0 += k
	}
	if err := fd.fht.TransformTile(); err != nil {
		return err
	}
	for l0, j := 0, i; l0 < lanes; j++ {
		t0, k := spans[j].segment(g0, l0, lanes)
		dst := spans[j].pair.Dst
		fd.fht.StoreColumns(dst.Data, dst.TOFBins, t0, l0, k)
		l0 += k
	}
	return nil
}
