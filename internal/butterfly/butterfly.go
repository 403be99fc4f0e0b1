// Package butterfly is the one fast Walsh–Hadamard butterfly network of
// the repository, and the integer tile step built around it: the blocked,
// in-place transform that both the float CPU decoder (internal/hadamard)
// and the fixed-point FPGA model (internal/fpga) run over their work
// tiles.
//
// One schedule serves every element type.  A tile holds `lanes`
// independent length-`rows` transforms packed row-major (x[r*lanes+l] is
// element r of transform l); the network walks the radix-2 levels
// h = 1, 2, 4, … exactly as the scalar transform does, three levels fused
// per pass so each element is loaded and stored once per pass instead of
// three times.  Fusing changes when an intermediate is computed, never
// which two operands meet in which add or subtract, so every lane's
// result has the same operation tree as the scalar loop: float64 results
// are bit-identical to hadamard.FWHT, int64 and int32 results wrap
// exactly as a scalar two's-complement loop does.
//
// Integer tile step.  The fixed-point model decodes integral frames in
// int32, eight lanes per YMM instead of float64's four.  Quantize16 reads a
// 16-lane tile of float64 source rows, proves every scaled word an integer
// within ±hi and every lane's L1 = Σ|word| within hi, and scatters the
// words into an int32 work tile.  Block runs the network on the tile;
// AddRowSums reduces each transform row's 16 lanes to one int64.  Every
// butterfly word of a lane is a ±1-signed sum of a subset of the lane's
// inputs, so |word| <= L1 <= hi < 2^31: a proved tile cannot overflow, and
// its words and row sums are the exact integers the float64 network (or
// the int64 one) computes.  A tile the pass cannot prove is the caller's
// to run another way.
//
// Two backends run the fused pass: a generic Go body (pass8, below), and
// on amd64 an AVX2 body in Go assembly (pass8_amd64.s) that performs the
// same adds and subtracts four (float64, int64) or eight (int32) lanes per
// instruction.  The choice is made once at init from CPUID; building with
// -tags purego, or for another architecture, compiles the assembly out —
// and with it Quantize16, which then proves nothing, so callers keep
// their float or int64 path.
package butterfly

import (
	"math"
	"math/bits"
)

// elem is the network's element type: float64 for the float decoder,
// int64 for the fixed-point model's wide formats, int32 for the integer
// tile step.
type elem interface{ float64 | int64 | int32 }

// Backend names the implementation the fused pass runs on this machine
// and build: "avx2" or "go".
func Backend() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// Block transforms the lanes row-major-packed length-rows columns of
// x[:rows*lanes] in place.  Integer arithmetic wraps.  rows must be a power
// of two and x must hold the tile; Block panics otherwise, before
// touching x — callers validate their geometry, this is the backstop that
// keeps a short slice from ever reaching the assembly.
func Block[T elem](x []T, rows, lanes int) {
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
func pass8[T elem](x []T, hl int) {
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
func head2[T elem](x []T, lanes int) {
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
func head4[T elem](x []T, lanes int) {
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

// QuantizeLanes is the tile width of the integer tile step: Quantize16
// and the vector AddRowSums take 16-lane tiles, four YMM groups of
// float64 source words, two of int32 work words.
const QuantizeLanes = 16

// Quantize16 is the integer tile step's quantize-and-prove pass over one
// QuantizeLanes-wide tile.  For each source row i — src[i*stride:] holds
// its 16 words — it scales the words by scale, a power of two, and stores
// them as int32 at work row scatter[i] (work[scatter[i]*16:][:16]); it
// reports whether every scaled word was an integer r and every lane's
// L1 = Σ|r| was <= hi, the bound under which the int32 network cannot
// overflow (see the package comment) — and so also |r| <= hi.  NaN, ±Inf
// and fractions fail the proof; −0 is the integer 0.  The float64 L1
// decides exactly: its partial sums are exact below 2^53 and, being sums
// of non-negative terms, never fall back once above hi.  It gives up at
// the first row holding a word that is not an integer, and on false the
// work rows hold nothing usable.
//
// It also reports false, proving nothing, where the pass has no vector
// body (non-AVX2 machines, -tags purego, other architectures) and when a
// scatter address falls outside work.  A source tile that does not fit
// src, hi < 0, or a scale that is not a power of two in [2^-512, 2^512]
// is a caller bug and panics before anything is read.
func Quantize16(work []int32, src []float64, stride int, scatter []int, scale float64, hi int32) bool {
	rows := len(scatter)
	if rows < 1 || stride < QuantizeLanes || hi < 0 || len(src) < QuantizeLanes || (len(src)-QuantizeLanes)/stride < rows-1 {
		panic("butterfly: quantize tile is not len(scatter) rows × 16 words inside src")
	}
	if frac, exp := math.Frexp(scale); frac != 0.5 || exp < -511 || exp > 513 {
		panic("butterfly: quantize scale is not a power of two in [2^-512, 2^512]")
	}
	return quantizeVector(work, src, stride, scatter, scale, float64(hi))
}

// AddRowSums adds each tile row's lane sum to acc: acc[r] += Σ_l
// x[r*lanes+l] for r < rows, summed in int64 (an int64 tile's sums wrap;
// an int32 tile's cannot, 16 lanes of 32 bits).  acc must hold rows words
// and x the tile; AddRowSums panics otherwise.  A 16-lane int32 tile of a
// multiple of 4 rows is reduced in assembly where the network is.
func AddRowSums[T int32 | int64](acc []int64, x []T, rows, lanes int) {
	if rows < 0 || lanes < 0 || len(acc) < rows || (lanes > 0 && len(x)/lanes < rows) {
		panic("butterfly: row sums outside acc or the tile")
	}
	if rowSumsVector(acc, x, rows, lanes) {
		return
	}
	for r := range acc[:rows] {
		// Integer addition is associative: eight lanes per step as a
		// balanced tree keeps the adds independent without changing a bit.
		w := x[r*lanes : r*lanes+lanes]
		var s int64
		for ; len(w) >= 8; w = w[8:] {
			v := (*[8]T)(w)
			s += ((int64(v[0]) + int64(v[1])) + (int64(v[2]) + int64(v[3]))) +
				((int64(v[4]) + int64(v[5])) + (int64(v[6]) + int64(v[7])))
		}
		for _, v := range w {
			s += int64(v)
		}
		acc[r] += s
	}
}
