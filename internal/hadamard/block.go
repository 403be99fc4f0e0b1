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

// BatchDecoder is a Decoder with an allocation-free entry point: DecodeTo
// reuses per-decoder scratch for one column.  Implementations carry mutable
// scratch, so a BatchDecoder must not be shared between goroutines without
// external synchronization — create one per worker (the
// pipeline.DecoderFactory contract).
type BatchDecoder interface {
	Decoder
	// DecodeTo decodes waveform y into dst without allocating.  Both
	// slices must have length Len(); dst is fully overwritten.
	DecodeTo(dst, y []float64) error
}

// checkBlockDims validates the tile geometry FHTDecoder.DecodeBatch takes.
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
