// pool.go: a sync.Pool-backed recycler of Frames for steady-state
// serving paths that decode one frame per request and would otherwise
// allocate (and zero) a payload-sized Data slice each time.
//
// Ownership rules (see docs/PERFORMANCE.md): whoever Gets a frame owns it
// until it is Put back exactly once; a frame must not be touched after
// Put, and a frame must never be Put while another goroutine can still
// reach it.  Frames obtained elsewhere (NewFrame, frameio) may also be
// Put — the pool only cares about Data capacity.
package instrument

import "sync"

// FramePool recycles Frames through a sync.Pool.  The zero value is ready
// to use.  A frame from Get has the requested geometry and unspecified
// contents — whatever its previous owner left — so it is for callers that
// overwrite every cell (a frame decoder, a deconvolution's output), as
// hadamard.ColumnBlock.Reset is for tiles; use NewFrame for a zero frame.
type FramePool struct {
	pool sync.Pool
}

// Get returns a driftBins×tofBins frame with unspecified contents, reusing
// a pooled backing array when one with enough capacity is available.
func (p *FramePool) Get(driftBins, tofBins int) *Frame {
	n := driftBins * tofBins
	if v := p.pool.Get(); v != nil {
		f := v.(*Frame)
		if cap(f.Data) >= n {
			f.DriftBins, f.TOFBins = driftBins, tofBins
			f.Data = f.Data[:n]
			return f
		}
		// Too small to reuse; drop it and fall through to a fresh frame.
	}
	return NewFrame(driftBins, tofBins)
}

// Put returns a frame to the pool.  nil is ignored.
func (p *FramePool) Put(f *Frame) {
	if f != nil {
		p.pool.Put(f)
	}
}
