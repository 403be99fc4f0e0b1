// block.go provides the column-blocked tile machinery behind the batched,
// zero-steady-state-allocation decode path.  A ColumnBlock packs B m/z
// columns ("lanes") of a frame into one row-major tile so the scatter, the
// FWHT butterflies and the gather all run with unit-stride inner loops over
// the lanes: one index computation is amortized over B columns and every
// memory access walks consecutive float64s.  The layout mirrors the
// communication-avoiding blocking of the Xcorr micro-architecture and
// SpecHD designs (PAPERS.md): the order-of-magnitude lives in moving the
// transform over many spectra at once, not in a faster scalar kernel.
package hadamard

import "fmt"

// ColumnBlock is a column-blocked tile of frame data: Lanes m/z columns by
// Rows drift bins, stored row-major with lanes contiguous —
// Data[r*Lanes+l] holds row r of column l.  Operations applied row-by-row
// across the block therefore run at unit stride over the lanes.
type ColumnBlock struct {
	Rows  int
	Lanes int
	Data  []float64
}

// NewColumnBlock allocates a zero tile of the given geometry.
func NewColumnBlock(rows, lanes int) *ColumnBlock {
	return &ColumnBlock{Rows: rows, Lanes: lanes, Data: make([]float64, rows*lanes)}
}

// Reset re-shapes the tile for reuse, growing the backing array only when
// the new geometry exceeds its capacity.  The tile contents are
// unspecified afterwards; every consumer in this package fully overwrites
// the rows it reads or writes.
func (b *ColumnBlock) Reset(rows, lanes int) {
	n := rows * lanes
	if cap(b.Data) < n {
		b.Data = make([]float64, n)
	}
	b.Rows, b.Lanes, b.Data = rows, lanes, b.Data[:n]
}

// Row returns the lane-contiguous slice holding row r of every lane.
func (b *ColumnBlock) Row(r int) []float64 {
	return b.Data[r*b.Lanes : (r+1)*b.Lanes]
}

// At returns the value at row r of lane l.
func (b *ColumnBlock) At(r, l int) float64 { return b.Data[r*b.Lanes+l] }

// BatchDecoder is a Decoder with the allocation-free entry points of the
// batched decode path: DecodeTo reuses per-decoder scratch for one column,
// DecodeBatch runs a whole column-blocked tile.  Implementations carry
// mutable scratch, so a BatchDecoder must not be shared between goroutines
// without external synchronization — create one per worker (the
// pipeline.DecoderFactory contract).
type BatchDecoder interface {
	Decoder
	// DecodeTo decodes waveform y into dst without allocating.  Both
	// slices must have length Len(); dst is fully overwritten.
	DecodeTo(dst, y []float64) error
	// DecodeBatch decodes every lane of src into the matching lane of
	// dst without steady-state allocation.  Both tiles must have
	// Rows == Len() and equal Lanes; dst is fully overwritten.
	DecodeBatch(dst, src *ColumnBlock) error
}

// checkBlockDims validates the tile geometry shared by every DecodeBatch
// implementation.
func checkBlockDims(n int, dst, src *ColumnBlock) error {
	if src == nil || dst == nil {
		return fmt.Errorf("hadamard: nil column block")
	}
	if src.Rows != n || dst.Rows != n {
		return fmt.Errorf("hadamard: block rows %d/%d, want %d", src.Rows, dst.Rows, n)
	}
	if src.Lanes != dst.Lanes {
		return fmt.Errorf("hadamard: block lanes mismatch %d vs %d", src.Lanes, dst.Lanes)
	}
	if src.Lanes < 1 {
		return fmt.Errorf("hadamard: block needs >= 1 lane")
	}
	return nil
}

// columnScratch is the per-decoder lane staging used by the decoders whose
// kernel is inherently one-dimensional (the FFT-based Standard and Wiener
// decoders): each lane is transposed into a contiguous column, decoded
// with DecodeTo, and transposed back.
type columnScratch struct {
	y, x []float64
}

// ensure returns the two length-n staging columns, growing them on first
// use.
func (s *columnScratch) ensure(n int) (y, x []float64) {
	if cap(s.y) < n {
		s.y = make([]float64, n)
		s.x = make([]float64, n)
	}
	return s.y[:n], s.x[:n]
}

// decodeBatchByColumn implements DecodeBatch lane-by-lane through a
// decoder's DecodeTo, for decoders without a blocked kernel.  It performs
// no steady-state allocation.
func decodeBatchByColumn(d BatchDecoder, s *columnScratch, dst, src *ColumnBlock) error {
	n := d.Len()
	if err := checkBlockDims(n, dst, src); err != nil {
		return err
	}
	y, x := s.ensure(n)
	L := src.Lanes
	for l := 0; l < L; l++ {
		for r := 0; r < n; r++ {
			y[r] = src.Data[r*L+l]
		}
		if err := d.DecodeTo(x, y); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			dst.Data[r*L+l] = x[r]
		}
	}
	return nil
}
