// Package butterfly is the one fast Walsh–Hadamard butterfly network of
// the repository: the blocked, in-place transform that both the float CPU
// decoder (internal/hadamard) and the plain branch of the fixed-point FPGA
// model (internal/fpga) run over their work tiles.
//
// One schedule serves both element types.  A tile holds `lanes`
// independent length-`rows` transforms packed row-major (x[r*lanes+l] is
// element r of transform l); the network walks the radix-2 levels
// h = 1, 2, 4, … exactly as the scalar transform does, three levels fused
// per pass so each element is loaded and stored once per pass instead of
// three times.  Fusing changes when an intermediate is computed, never
// which two operands meet in which add or subtract, so every lane's
// result has the same operation tree as the scalar loop: float64 results
// are bit-identical to hadamard.FWHT, int64 results wrap exactly as a
// scalar two's-complement loop does.
//
// Two backends run the fused pass: a generic Go body (pass8, below), and
// on amd64 an AVX2 body in Go assembly (pass8_amd64.s) that performs the
// same adds and subtracts four lanes per instruction.  The choice is made
// once at init from CPUID; building with -tags purego, or for another
// architecture, compiles the assembly out.
package butterfly

import "math/bits"

// Backend names the implementation the fused pass runs on this machine
// and build: "avx2" or "go".
func Backend() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// Block transforms the lanes row-major-packed length-rows columns of
// x[:rows*lanes] in place.  int64 arithmetic wraps.  rows must be a power
// of two and x must hold the tile; Block panics otherwise, before
// touching x — callers validate their geometry, this is the backstop that
// keeps a short slice from ever reaching the assembly.
func Block[T float64 | int64](x []T, rows, lanes int) {
	if rows < 1 || rows&(rows-1) != 0 || lanes < 0 || lanes > len(x)/rows {
		panic("butterfly: tile is not rows (a power of two) × lanes within x")
	}
	x = x[:rows*lanes]
	if len(x) == 0 {
		return
	}
	// Leftover levels (log2(rows) mod 3) run first, at the smallest
	// strides, so the level order stays that of the scalar transform.
	h := 1
	switch bits.TrailingZeros(uint(rows)) % 3 {
	case 1:
		head2(x, lanes)
		h = 2
	case 2:
		head4(x, lanes)
		h = 4
	}
	for ; h < rows; h <<= 3 {
		if hl := h * lanes; !pass8Vector(x, hl) {
			pass8(x, hl)
		}
	}
}

// pass8 runs the fused levels h, 2h and 4h, hl = h*lanes: the eight tile
// rows j, j+h, …, j+7h move through three radix-2 levels in registers.
func pass8[T float64 | int64](x []T, hl int) {
	for i := 0; i < len(x); i += 8 * hl {
		// Rows j..j+h−1 of a group are contiguous, so each of the eight
		// operands is one unit-stride run of hl elements.
		r0 := x[i : i+hl : i+hl]
		r1 := x[i+hl : i+2*hl : i+2*hl]
		r2 := x[i+2*hl : i+3*hl : i+3*hl]
		r3 := x[i+3*hl : i+4*hl : i+4*hl]
		r4 := x[i+4*hl : i+5*hl : i+5*hl]
		r5 := x[i+5*hl : i+6*hl : i+6*hl]
		r6 := x[i+6*hl : i+7*hl : i+7*hl]
		r7 := x[i+7*hl : i+8*hl : i+8*hl]
		for l, v0 := range r0 {
			v1, v2, v3 := r1[l], r2[l], r3[l]
			v4, v5, v6, v7 := r4[l], r5[l], r6[l], r7[l]
			// Level h.
			a0, a1 := v0+v1, v0-v1
			a2, a3 := v2+v3, v2-v3
			a4, a5 := v4+v5, v4-v5
			a6, a7 := v6+v7, v6-v7
			// Level 2h.
			b0, b2 := a0+a2, a0-a2
			b1, b3 := a1+a3, a1-a3
			b4, b6 := a4+a6, a4-a6
			b5, b7 := a5+a7, a5-a7
			// Level 4h.
			r0[l], r4[l] = b0+b4, b0-b4
			r1[l], r5[l] = b1+b5, b1-b5
			r2[l], r6[l] = b2+b6, b2-b6
			r3[l], r7[l] = b3+b7, b3-b7
		}
	}
}

// head2 runs level 1 alone: adjacent row pairs.
func head2[T float64 | int64](x []T, lanes int) {
	for jo := 0; jo < len(x); jo += 2 * lanes {
		a := x[jo : jo+lanes : jo+lanes]
		b := x[jo+lanes : jo+2*lanes : jo+2*lanes]
		for l, av := range a {
			bv := b[l]
			a[l], b[l] = av+bv, av-bv
		}
	}
}

// head4 runs levels 1 and 2 fused: adjacent row quadruples.
func head4[T float64 | int64](x []T, lanes int) {
	for jo := 0; jo < len(x); jo += 4 * lanes {
		a := x[jo : jo+lanes : jo+lanes]
		b := x[jo+lanes : jo+2*lanes : jo+2*lanes]
		c := x[jo+2*lanes : jo+3*lanes : jo+3*lanes]
		d := x[jo+3*lanes : jo+4*lanes : jo+4*lanes]
		for l, av := range a {
			bv, cv, dv := b[l], c[l], d[l]
			s0, s1 := av+bv, av-bv
			s2, s3 := cv+dv, cv-dv
			a[l], b[l] = s0+s2, s1+s3
			c[l], d[l] = s0-s2, s1-s3
		}
	}
}
