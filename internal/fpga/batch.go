// batch.go is the tile path of the modeled FPGA deconvolution:
// deconvolveTile moves up to a tile's worth of m/z columns through the
// fixed-point FHT core in three passes, reading and writing the caller's
// row-major matrix in place (any row stride, so a whole instrument frame
// needs no staging copy):
//
//  1. DMA-in: each source word is read once, quantized to the core's
//     format and stored at its scatter address in a lane-contiguous work
//     tile, while a per-lane sum of |word| is accumulated;
//  2. the butterfly network over the work tile;
//  3. DMA-out: gather, rescale and store each result word once.
//
// Headroom proof.  Every word at every butterfly level is a ±1-signed sum
// of a subset of its lane's quantized inputs, so |word| <= L1[lane], the
// lane's sum of |input|.  Under GrowthSaturate, when L1[lane] <=
// Format.Max() for every lane of the tile, no Format.Add or Sub can
// saturate and Add(a, b) is exactly a+b: the network then runs as plain
// wrapping int64 adds and subtracts on butterfly.Block, the network the
// float decoder uses (integer arithmetic is exact, so its fusion order
// and vector width cannot change a bit).  The bound is conservative: a
// tile that fails it — or any tile under GrowthScalePerStage, whose
// per-level rounding shift the plain network does not model — runs the
// saturating levels operation for operation as DeconvolveTo does.  Either way every lane's result, the saturation count
// and the cycle charge equal the scalar path's
// (TestDeconvolveBatchMatchesScalar, FuzzDeconvolveTileMatchesScalar).
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
	if lanes < 1 || t0 < 0 || lanes > stride-t0 {
		return 0, fmt.Errorf("fpga: columns [%d,%d) outside row stride %d", t0, t0+lanes, stride)
	}
	if n := c.Len(); len(dst)/n < stride || len(src)/n < stride {
		return 0, fmt.Errorf("fpga: matrices of %d/%d values, want >= %d×%d", len(dst), len(src), n, stride)
	}
	return c.deconvolveTile(dst, src, stride, t0, lanes), nil
}

// deconvolveTile is the one tile implementation (see the file comment);
// geometry is already validated.  It returns the modeled cycles.
func (c *FHTCore) deconvolveTile(dst, src []float64, stride, t0, lanes int) int64 {
	m := c.Len() + 1
	L := lanes
	satBefore := c.saturation
	if cap(c.work) < m*L {
		c.work = make([]int64, m*L)
	}
	if cap(c.l1) < L {
		c.l1 = make([]uint64, L)
	}
	work, l1 := c.work[:m*L], c.l1[:L]
	// The scatter ROM covers addresses 1..m−1, so only row 0 needs
	// clearing.
	for l := range l1 {
		work[l], l1[l] = 0, 0
	}
	fscale, lo, hi := c.Format.scale(), c.Format.Min(), c.Format.Max()
	for i, p := range c.scatter {
		srow := src[i*stride+t0 : i*stride+t0+L]
		wrow := work[p*L : p*L+L]
		for l, v := range srow {
			// An integral in-range product is its own math.Round;
			// everything else (fractions, out of range, NaN, ±Inf) takes
			// FromFloat, so value and saturation count are unchanged.
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
	plain := c.Growth == GrowthSaturate
	for _, s := range l1 {
		plain = plain && s <= uint64(hi)
	}
	scale := c.dec.Scale() / fscale // fscale is a power of two: exact
	if plain {
		butterfly.Block(work, m, L)
	} else {
		perStage := c.Growth == GrowthScalePerStage
		for h := 1; h < m; h <<= 1 {
			c.fhtLevelFixed(work, m, L, h, perStage)
		}
		if perStage {
			scale *= math.Ldexp(1, c.Order)
		}
	}
	for j, g := range c.gather {
		wrow := work[g*L : g*L+L]
		drow := dst[j*stride+t0 : j*stride+t0+L]
		for l, w := range wrow {
			drow[l] = float64(w) * scale
		}
	}
	cycles := c.CyclesPerFrame() * int64(L)
	c.columnsC.Add(int64(L))
	c.cyclesC.Add(cycles)
	c.saturationsC.Add(c.saturation - satBefore)
	return cycles
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
