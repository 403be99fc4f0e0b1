// batch.go is the tile path of the modeled FPGA deconvolution: up to a
// tile's worth of m/z columns move through the fixed-point FHT core in
// three passes, reading the caller's row-major matrix in place (any row
// stride, so a whole instrument frame needs no staging copy):
//
//  1. DMA-in: each source word is read once, quantized to the core's
//     format and stored at its scatter address in a lane-contiguous work
//     tile, while a per-lane sum of |word| is accumulated.  A full
//     16-lane tile of a GrowthSaturate core whose words fit int32 (the
//     served Q23.8's Max is exactly 2^31−1) is first the repository's
//     integer tile step, butterfly.Quantize16: on AVX2 machines it
//     converts every word to int32 and proves it integral and every lane
//     within the headroom bound below.  A tile it cannot prove — a
//     fraction, a word out of range, NaN, ±Inf, a lane past the bound, a
//     narrower tile, a wider format, a build without the kernel — goes
//     through the Go loop into int64 words, the only fallback and the
//     oracle, so words, saturation count and the plain/saturating choice
//     never depend on which pass ran;
//     A counts source (ReduceCountColumns) needs no per-tile proof: its
//     bound decides the plain branch for the whole matrix, whose tiles are
//     copied into int32 words unscaled;
//  2. the butterfly network over the work tile, int32 or int64;
//  3. DMA-out: DeconvolveColumns gathers, rescales and stores each result
//     word once; ReduceColumns instead adds each transform row's lane sum
//     into the caller's int64 accumulator (butterfly.AddRowSums, a vector
//     reduce for an int32 tile), and GatherSums rescales the accumulated
//     rows once per matrix.
//
// Headroom proof.  Every word at every butterfly level is a ±1-signed sum
// of a subset of its lane's quantized inputs, so |word| <= L1[lane], the
// lane's sum of |input|.  Under GrowthSaturate, when L1[lane] <=
// Format.Max() for every lane of the tile, no Format.Add or Sub can
// saturate and Add(a, b) is exactly a+b: the network then runs as plain
// adds and subtracts on butterfly.Block, the network the float decoder
// uses — in int32 when the integer step proved the tile (|word| <= L1 <=
// Max < 2^31, so nothing wraps), else in int64 (integer arithmetic is
// exact, so element width, fusion order and vector width cannot change a
// bit).  The bound is conservative: a
// tile that fails it — or any tile under GrowthScalePerStage, whose
// per-level rounding shift the plain network does not model — runs the
// saturating levels operation for operation as DeconvolveTo does.  Either
// way every lane's result, the saturation count and the cycle charge
// equal the scalar path's (TestDeconvolveBatchMatchesScalar,
// FuzzDeconvolveTileMatchesScalar).
package fpga

import (
	"fmt"
	"math"

	"repro/internal/butterfly"
	"repro/internal/hadamard"
)

// DeconvolveBatch runs the fixed-point transform on every lane of src
// into the matching lane of dst — src and dst must both have Rows ==
// Len() and equal lane counts — and returns the modeled hardware cycles
// consumed (CyclesPerFrame per lane; the modeled engine processes columns
// through one physical butterfly network).  Per-core scratch is reused,
// so the steady state allocates nothing; like DeconvolveTo this makes the
// core single-threaded.
func (c *FHTCore) DeconvolveBatch(dst, src *hadamard.ColumnBlock) (int64, error) {
	n := c.Len()
	if src == nil || dst == nil {
		return 0, fmt.Errorf("fpga: nil column block")
	}
	if src.Rows != n || dst.Rows != n {
		return 0, fmt.Errorf("fpga: block rows %d/%d, want %d", src.Rows, dst.Rows, n)
	}
	if src.Lanes != dst.Lanes || src.Lanes < 1 {
		return 0, fmt.Errorf("fpga: block lanes %d/%d invalid", src.Lanes, dst.Lanes)
	}
	return c.deconvolveTile(dst.Data, src.Data, src.Lanes, 0, src.Lanes), nil
}

// DeconvolveColumns is DeconvolveBatch straight on two row-major matrices
// of Len() rows and `stride` values per row (an instrument.Frame's Data
// with stride TOFBins): columns [t0, t0+lanes) of src are deconvolved
// into the same columns of dst, and no other cell of dst is written.
func (c *FHTCore) DeconvolveColumns(dst, src []float64, stride, t0, lanes int) (int64, error) {
	if err := c.checkColumns(min(len(dst), len(src)), stride, t0, lanes); err != nil {
		return 0, err
	}
	return c.deconvolveTile(dst, src, stride, t0, lanes), nil
}

// ReduceColumns is the reducing sibling of DeconvolveColumns: instead of
// storing columns [t0, t0+lanes) of the deconvolved matrix it adds, for
// every transform row g, the row's lane sum into acc[g] (acc holds
// 2^Order = Len()+1 words, in transform-row order; the caller zeroes it
// once per matrix).  GatherSums then turns the accumulator into the
// matrix's row sums.  Quantization, saturation accounting and the cycle
// charge are DeconvolveColumns' own; the sums wrap only past the bound
// MaxReduceColumns documents.
func (c *FHTCore) ReduceColumns(acc []int64, src []float64, stride, t0, lanes int) (int64, error) {
	if len(acc) < c.Len()+1 {
		return 0, fmt.Errorf("fpga: accumulator of %d words, want %d", len(acc), c.Len()+1)
	}
	if err := c.checkColumns(len(src), stride, t0, lanes); err != nil {
		return 0, err
	}
	w32, w64, cycles := c.transformTile(src, stride, t0, lanes)
	if m := c.Len() + 1; w32 != nil {
		butterfly.AddRowSums(acc, w32, m, lanes)
	} else {
		butterfly.AddRowSums(acc, w64, m, lanes)
	}
	return cycles, nil
}

// GatherSums writes into dst (Len() values) what ReduceColumns
// accumulated in acc, read through the gather permutation and rescaled:
// dst[j] is the sum over every reduced column of the value
// DeconvolveColumns would have stored at row j.  Up to MaxReduceColumns
// columns that sum is bit-identical to adding the stored values left to
// right from +0, as instrument.Frame.DriftProfileInto does.
func (c *FHTCore) GatherSums(dst []float64, acc []int64) {
	scale := c.outputScale()
	for j, g := range c.gather {
		// + 0 turns the −0 of a zero sum times the negative scale into
		// the +0 a left-to-right sum from +0 yields.
		dst[j] = float64(acc[g])*scale + 0
	}
}

// ReduceCountColumns is ReduceColumns over a row-major matrix of int32
// counts (an instrument.Counts' Data) whose every |cell| is at most bound;
// GatherCountSums, given the same bound, turns the accumulator into the
// matrix's row sums.  The bound decides for the whole matrix at once.
// Under GrowthSaturate with Len()·bound·2^FracBits <= Format.Max() no lane
// of any tile can reach the headroom bound (see the file comment), so the
// plain branch copies the counts through the scatter into an int32 work
// tile, unscaled, runs the network and adds each row's lane sum to acc:
// the integer tile step of the CPU decoder, with the format's 2^FracBits
// left to GatherCountSums' power-of-two rescale.  Any other matrix goes
// through the Go quantize loop as ReduceColumns' float sources do, with the
// same words, saturation count and plain/saturating choice.  Cycles are
// charged as for DeconvolveColumns.
func (c *FHTCore) ReduceCountColumns(acc []int64, src []int32, stride, t0, lanes int, bound int64) (int64, error) {
	if len(acc) < c.Len()+1 {
		return 0, fmt.Errorf("fpga: accumulator of %d words, want %d", len(acc), c.Len()+1)
	}
	if err := c.checkColumns(len(src), stride, t0, lanes); err != nil {
		return 0, err
	}
	m := c.Len() + 1
	satBefore := c.saturation
	if c.plainCounts(bound) {
		if cap(c.work32) < m*lanes {
			c.work32 = make([]int32, m*lanes)
		}
		butterfly.CountsStep(acc, c.work32, src[t0:], stride, c.scatter, m, lanes)
	} else {
		butterfly.AddRowSums(acc, transform64(c, src, stride, t0, lanes), m, lanes)
	}
	return c.charge(lanes, satBefore), nil
}

// GatherCountSums is GatherSums for an accumulator ReduceCountColumns
// filled under bound: the plain branch's sums are in counts, not in the
// format's units, so the rescale omits the format's 2^-FracBits.
func (c *FHTCore) GatherCountSums(dst []float64, acc []int64, bound int64) {
	scale := c.outputScale()
	if c.plainCounts(bound) {
		scale = c.dec.Scale()
	}
	for j, g := range c.gather {
		dst[j] = float64(acc[g])*scale + 0 // + 0: see GatherSums
	}
}

// plainCounts reports whether counts of |cell| <= bound take
// ReduceCountColumns' plain int32 branch: GrowthSaturate, and every
// column's L1 <= Len()·bound within both int32 and, once quantized,
// Format.Max().
func (c *FHTCore) plainCounts(bound int64) bool {
	l1 := int64(c.Len()) * bound
	return c.Growth == GrowthSaturate && bound >= 0 && l1 <= math.MaxInt32 && l1 <= c.Format.Max()>>c.Format.FracBits
}

// MaxReduceColumns is the widest matrix whose row sums ReduceColumns and
// GatherSums produce exactly.  Every result word w has |w| <= 2^Width, so
// over `columns` columns every partial sum is an integer below
// 2^(Width+bits.Len(columns)) times the power-of-two output scale: exact
// in int64 and in float64's 53-bit significand, whatever the association,
// while Width + bits.Len(columns) <= 53.  Zero when the format is too
// wide for even one column.
func (c *FHTCore) MaxReduceColumns() int {
	if w := c.Format.Width(); w < 53 {
		return 1<<(53-w) - 1
	}
	return 0
}

// checkColumns validates a tile of columns [t0, t0+lanes) over row-major
// matrices of at least size values, Len() rows of stride values each.
func (c *FHTCore) checkColumns(size, stride, t0, lanes int) error {
	if lanes < 1 || t0 < 0 || lanes > stride-t0 {
		return fmt.Errorf("fpga: columns [%d,%d) outside row stride %d", t0, t0+lanes, stride)
	}
	if n := c.Len(); size/n < stride {
		return fmt.Errorf("fpga: matrix of %d values, want >= %d×%d", size, n, stride)
	}
	return nil
}

// deconvolveTile is the storing tile step (see the file comment);
// geometry is already validated.  It returns the modeled cycles.
func (c *FHTCore) deconvolveTile(dst, src []float64, stride, t0, lanes int) int64 {
	w32, w64, cycles := c.transformTile(src, stride, t0, lanes)
	if w32 != nil {
		storeTile(dst, w32, c.gather, stride, t0, lanes, c.outputScale())
	} else {
		storeTile(dst, w64, c.gather, stride, t0, lanes, c.outputScale())
	}
	return cycles
}

// storeTile is the storing DMA-out: transform row gather[j] of the work
// tile, rescaled, into row j of dst's columns [t0, t0+lanes).
func storeTile[T int32 | int64](dst []float64, work []T, gather []int, stride, t0, lanes int, scale float64) {
	for j, g := range gather {
		wrow := work[g*lanes : g*lanes+lanes]
		drow := dst[j*stride+t0 : j*stride+t0+lanes]
		for l, w := range wrow {
			drow[l] = float64(w) * scale
		}
	}
}

// transformTile runs passes 1 and 2 over columns [t0, t0+lanes) of src
// and returns the transformed work tile (lane-contiguous, in transform-row
// order) — int32 when the integer tile step proved it, else int64, the
// other nil — and the modeled cycles, which it charges to the core's
// counters.
func (c *FHTCore) transformTile(src []float64, stride, t0, lanes int) (w32 []int32, w64 []int64, cycles int64) {
	satBefore := c.saturation
	if w32 = c.quantize32(src, stride, t0, lanes); w32 != nil {
		butterfly.Block(w32, c.Len()+1, lanes)
	} else {
		w64 = transform64(c, src, stride, t0, lanes)
	}
	return w32, w64, c.charge(lanes, satBefore)
}

// transform64 runs passes 1 and 2 in int64 words: the Go quantize loop,
// then the plain network when every lane is within the headroom bound
// under GrowthSaturate, else the saturating levels.
func transform64[T float64 | int32](c *FHTCore, src []T, stride, t0, lanes int) []int64 {
	m := c.Len() + 1
	if cap(c.work) < m*lanes {
		c.work = make([]int64, m*lanes)
	}
	w64 := c.work[:m*lanes]
	// The scatter ROM covers addresses 1..m−1, so only row 0 needs
	// clearing.
	clear(w64[:lanes])
	if quantize(c, w64, src, stride, t0, lanes) && c.Growth == GrowthSaturate {
		butterfly.Block(w64, m, lanes)
	} else {
		perStage := c.Growth == GrowthScalePerStage
		for h := 1; h < m; h <<= 1 {
			c.fhtLevelFixed(w64, m, lanes, h, perStage)
		}
	}
	return w64
}

// charge returns the modeled cycles of a tile of lanes columns and adds
// them, the columns and the saturations counted since satBefore to the
// core's counters.
func (c *FHTCore) charge(lanes int, satBefore int64) int64 {
	cycles := c.CyclesPerFrame() * int64(lanes)
	c.columnsC.Add(int64(lanes))
	c.cyclesC.Add(cycles)
	c.saturationsC.Add(c.saturation - satBefore)
	return cycles
}

// quantize32 is pass 1 as the integer tile step: for a full 16-lane tile
// of a GrowthSaturate core whose words fit int32 it returns the int32
// work tile butterfly.Quantize16 proved, else nil.  A proved tile holds
// the Go loop's words and saturates nowhere, so there is nothing to count.
func (c *FHTCore) quantize32(src []float64, stride, t0, lanes int) []int32 {
	hi := c.Format.Max()
	if c.Growth != GrowthSaturate || lanes != butterfly.QuantizeLanes || hi > math.MaxInt32 {
		return nil
	}
	m := c.Len() + 1
	if cap(c.work32) < m*lanes {
		c.work32 = make([]int32, m*lanes)
	}
	w := c.work32[:m*lanes]
	clear(w[:lanes]) // row 0, as in transform64
	if !butterfly.Quantize16(w, src[t0:], stride, c.scatter, c.Format.scale(), int32(hi)) {
		return nil
	}
	return w
}

// quantize is pass 1 in Go, word by word, counting saturations; it
// reports whether every lane's L1 is within Format.Max().  Counts are
// widened to float64 exactly and quantized as float cells are.
func quantize[T float64 | int32](c *FHTCore, work []int64, src []T, stride, t0, lanes int) bool {
	if cap(c.l1) < lanes {
		c.l1 = make([]uint64, lanes)
	}
	l1 := c.l1[:lanes]
	clear(l1)
	fscale, lo, hi := c.Format.scale(), c.Format.Min(), c.Format.Max()
	for i, p := range c.scatter {
		srow := src[i*stride+t0 : i*stride+t0+lanes]
		wrow := work[p*lanes : p*lanes+lanes]
		for l, cell := range srow {
			// An integral in-range product is its own math.Round;
			// everything else (fractions, out of range, NaN, ±Inf) takes
			// FromFloat, so value and saturation count are unchanged.
			v := float64(cell)
			r := v * fscale
			raw := int64(r)
			if float64(raw) != r || raw < lo || raw > hi {
				var sat bool
				if raw, sat = c.Format.FromFloat(v); sat {
					c.saturation++
				}
			}
			wrow[l] = raw
			// A lane already above hi stops adding, so the sum cannot
			// wrap — not for 62-bit formats, and not for the MinInt64
			// that FromFloat's int64(NaN) yields on amd64 (|raw| = 2^63).
			if l1[l] <= uint64(hi) {
				a := uint64(raw)
				if raw < 0 {
					a = -a
				}
				l1[l] += a
			}
		}
	}
	for _, s := range l1 {
		if s > uint64(hi) {
			return false
		}
	}
	return true
}

// outputScale is the factor from a transformed work word to its decoded
// value: the decoder's −2/(N+1) over 2^FracBits, times 2^Order under
// GrowthScalePerStage to undo the per-level shifts.  A power of two, so
// the rescale is exact.
func (c *FHTCore) outputScale() float64 {
	scale := c.dec.Scale() / c.Format.scale()
	if c.Growth == GrowthScalePerStage {
		scale *= math.Ldexp(1, c.Order)
	}
	return scale
}

// fhtLevelFixed runs one radix-2 saturating butterfly level at stride h.
func (c *FHTCore) fhtLevelFixed(work []int64, rows, lanes, h int, perStage bool) {
	hl := h * lanes
	step := 2 * hl
	for i := 0; i < rows*lanes; i += step {
		for jo := i; jo < i+hl; jo += lanes {
			a := work[jo : jo+lanes : jo+lanes]
			b := work[jo+hl : jo+hl+lanes : jo+hl+lanes]
			for l, av := range a {
				bv := b[l]
				s1, sat1 := c.Format.Add(av, bv)
				s2, sat2 := c.Format.Sub(av, bv)
				if sat1 {
					c.saturation++
				}
				if sat2 {
					c.saturation++
				}
				if perStage {
					s1 = c.Format.Shr(s1, 1)
					s2 = c.Format.Shr(s2, 1)
				}
				a[l], b[l] = s1, s2
			}
		}
	}
}
