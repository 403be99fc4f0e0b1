// multiframe.go is the one column-block claim loop behind every frame
// deconvolution entry point.  Several frames — typically same-order frames
// from different client sessions, gathered by the acqserver coalescer — are
// decoded as one concatenated column space, with column blocks spanning
// frame boundaries: a batch of narrow frames fills full-width tiles and
// pays one blocked-kernel call per tile instead of one short call per
// frame.  A single frame is the same loop over one pair.
//
// A transformed tile is stored into the pair's Dst, reduced while still in
// cache into the pair's Profile (the decoded frame's row sums), or both:
// the serving path only wants the profile and never writes or re-reads the
// decoded frame.  Each (frame, tile) segment reduces into a slot of its own
// and a frame's slots are added in column order after the workers join, so
// a profile depends on the frames and the batch, never on the worker count
// or the claim order.
//
// A reduce-only tile of 16 columns inside one frame first tries the
// integer tile step (hadamard.FHTDecoder.ReduceIntegralColumns): when it
// proves every cell an integer and every column's L1 = Σ|cell| below
// 2^31, the tile is loaded as int32, transformed eight lanes per
// instruction and reduced in int64, and float64(rowSum)·scale goes into
// the same slot the float steps would have filled — the same value, since
// every word and row sum is an exact integer either way.  Any other tile
// (fractional or non-finite cells, a column past the bound, a narrow or
// frame-spanning tile, a stored one, no kernel in the build) runs the float
// steps, which stay the fallback and the oracle.
//
// The decoder's scale −2^(1−order) is a power of two, so for integral cells
// with TOFBins · 2^order · max|cell| < 2^53 (a 32-bit accumulator at order
// 9 × 256 columns reaches 2^49; every frameio.Delta frame is integral)
// every butterfly word, decoded cell and partial row sum is exact, and the
// profile is bit-identical to DriftProfile() of the stored decode under any
// association, tiling and batch.  Otherwise only the association differs:
// |Profile[d] − DriftProfile()[d]| <= TOFBins · 2^−52 · Σ_t |x[d][t]| over
// the decoded cells x, solo and batched each still deterministic.
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

// FramePair couples one source frame with what its decode is wanted as: the
// caller-owned destination Dst (same geometry, typically from an
// instrument.FramePool), the caller-owned drift profile Profile (length
// DriftBins, overwritten), or both from the one transform.  Dst may be nil
// when Profile is set: the decoded frame is then never stored.
type FramePair struct {
	Dst, Src *instrument.Frame
	Profile  []float64
}

// frameSpan locates one pair in the concatenated column space.
type frameSpan struct {
	pair  FramePair
	start int // first global column
	// Profile set: the frame's (frame, tile) segments own slots
	// [slot0, slot1), one per claim block its columns overlap.
	slot0, slot1 int
}

// slot returns, zeroed, the partial profile owned by the frame's segment
// of the tile starting at global column g0: n words of slots.
func (sp frameSpan) slot(slots []float64, g0, n int) []float64 {
	i := sp.slot0 + g0/DefaultBlockColumns - sp.start/DefaultBlockColumns
	s := slots[i*n : (i+1)*n]
	clear(s)
	return s
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

// DeconvolveFramesWith deconvolves every pair's Src into its Dst, its
// Profile or both through the caller's decoders, treating the pairs as one
// concatenated column space: each decoder is one worker claiming
// DefaultBlockColumns-wide global column blocks with one atomic increment
// each, and a block that straddles a frame boundary is still one tile.  The
// calling goroutine is the last worker (one decoder spawns nothing), no
// more decoders are used than there are blocks, and all are free again when
// the call returns.  Sources must share the decoders' drift-bin count; TOF
// widths may differ.  Cancellation stops every worker within one block;
// every worker's error is returned (errors.Join).  On error the
// destinations and profiles hold partial results and must not be used.
func DeconvolveFramesWith(ctx context.Context, pairs []FramePair, decoders []*FrameDecoder, reg *telemetry.Registry) error {
	if len(pairs) == 0 {
		return nil
	}
	if len(decoders) == 0 {
		return fmt.Errorf("pipeline: no frame decoders")
	}
	spans := make([]frameSpan, len(pairs))
	total, nslots := 0, 0
	for i, p := range pairs {
		if p.Src == nil || (p.Dst == nil && p.Profile == nil) {
			return fmt.Errorf("pipeline: nil frame in pair %d", i)
		}
		if p.Dst != nil && (p.Dst.DriftBins != p.Src.DriftBins || p.Dst.TOFBins != p.Src.TOFBins) {
			return fmt.Errorf("pipeline: pair %d dst %dx%d != src %dx%d",
				i, p.Dst.DriftBins, p.Dst.TOFBins, p.Src.DriftBins, p.Src.TOFBins)
		}
		if p.Profile != nil && len(p.Profile) != p.Src.DriftBins {
			return fmt.Errorf("pipeline: pair %d profile length %d != drift bins %d",
				i, len(p.Profile), p.Src.DriftBins)
		}
		if p.Src.DriftBins != pairs[0].Src.DriftBins {
			return fmt.Errorf("pipeline: pair %d drift bins %d != pair 0's %d",
				i, p.Src.DriftBins, pairs[0].Src.DriftBins)
		}
		spans[i] = frameSpan{pair: p, start: total, slot0: nslots}
		total += p.Src.TOFBins
		if p.Profile != nil && p.Src.TOFBins > 0 {
			nslots += (total-1)/DefaultBlockColumns - spans[i].start/DefaultBlockColumns + 1
		}
		spans[i].slot1 = nslots
	}
	for _, fd := range decoders {
		if fd.Len() != pairs[0].Src.DriftBins {
			return fmt.Errorf("pipeline: decoder length %d != drift bins %d", fd.Len(), pairs[0].Src.DriftBins)
		}
	}
	// Slots live with the set's first decoder; the call owns every decoder.
	n := pairs[0].Src.DriftBins
	if cap(decoders[0].slots) < nslots*n {
		decoders[0].slots = make([]float64, nslots*n)
	}
	slots := decoders[0].slots[:nslots*n]
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
			if errs[w] = fd.decodeSpan(spans, slots, g0, lanes); errs[w] != nil {
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
	for _, sp := range spans {
		profile := sp.pair.Profile
		if profile == nil {
			continue
		}
		clear(profile) // then column order, from +0 as DriftProfile sums

		for i := sp.slot0; i < sp.slot1; i++ {
			for j, v := range slots[i*n : (i+1)*n] {
				profile[j] += v
			}
		}
	}
	m.frames.Add(int64(len(pairs)))
	return nil
}

// decodeSpan decodes global columns [g0, g0+lanes) of the concatenated
// column space described by spans.  An FHT decoder takes them as one tile:
// each overlapped frame's segment is loaded into its lane offset, the
// blocked kernel runs once, and each segment is stored back into its Dst,
// reduced while still in cache into its own profile slot, or both — a
// full reduce-only tile inside one frame through the integer tile step
// when it can be proved (see the file comment).  Any other decoder goes
// column by column — through DecodeTo, allocation-free, when it has one —
// adding each decoded column to the segment's slot.
// slots is only indexed for pairs with a Profile.
func (fd *FrameDecoder) decodeSpan(spans []frameSpan, slots []float64, g0, lanes int) error {
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
		var slot []float64
		for g := g0; g < g0+lanes; g++ {
			for g >= spans[i].start+spans[i].pair.Src.TOFBins {
				i++
				slot = nil
			}
			if slot == nil && spans[i].pair.Profile != nil {
				slot = spans[i].slot(slots, g0, n)
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
			if dst := spans[i].pair.Dst; dst != nil {
				dst.SetDriftVector(t, x)
			}
			for d, v := range x[:len(slot)] {
				slot[d] += v
			}
		}
		return nil
	}
	// A reduce-only tile inside one frame tries the integer step first.
	if sp := spans[i]; sp.pair.Dst == nil && sp.pair.Profile != nil {
		if t0, k := sp.segment(g0, 0, lanes); k == lanes &&
			fd.fht.ReduceIntegralColumns(sp.slot(slots, g0, fd.Len()), sp.pair.Src.Data, sp.pair.Src.TOFBins, t0, k) {
			return nil
		}
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
		if dst := spans[j].pair.Dst; dst != nil {
			fd.fht.StoreColumns(dst.Data, dst.TOFBins, t0, l0, k)
		}
		if spans[j].pair.Profile != nil {
			fd.fht.ReduceColumns(spans[j].slot(slots, g0, fd.Len()), l0, k)
		}
		l0 += k
	}
	return nil
}
