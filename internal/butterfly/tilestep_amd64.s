//go:build amd64 && !purego

#include "textflag.h"

// The integer tile step's two kernels around the network (see Quantize16
// and AddRowSums in butterfly.go): quantize16 loads a 16-lane tile and
// proves it, rowSums16 reduces the transformed tile's rows.

// QUANT proves four lanes of one source row: v into Y9, |v| added to the
// lane group's L1 accumulator ACC, t = v + magic into T, and the lane
// verdict (t − magic) == v ANDed into Y4.  With magic = 1.5·2^52/scale
// (scale a power of two) the unit in t's last place is 1/scale, so for
// |r| < 2^51, r = v·scale, the verdict holds exactly when r is an integer,
// and then the low 32 bits of t are r as an int32 once |r| < 2^31; NaN
// and ±Inf fail.  Neither range needs a test of its own: |r| <= L1, which
// the epilogue bounds by hi < 2^31, so L1 and the bound stay in units of
// v.  Y6 = magic, Y8 = the sign-clearing mask.
#define QUANT(SOFF, ACC, T) \
	VMOVUPD SOFF(SI), Y9; \
	VANDPD  Y8, Y9, Y10; \
	VADDPD  Y10, ACC, ACC; \
	VADDPD  Y6, Y9, T; \
	VSUBPD  Y6, T, Y13; \
	VCMPPD  $0, Y9, Y13, Y13; \
	VANDPD  Y13, Y4, Y4

// PACK stores the int32 words of two QUANTs' t vectors, eight lanes, at
// WOFF(R8): the even dwords of T0 and T1 (per 128-bit half: T0's, then
// T1's), put back in lane order by the qword permute.
#define PACK(T0, T1, WOFF) \
	VSHUFPS $0x88, T1, T0, Y14; \
	VPERMQ  $0xD8, Y14, Y14; \
	VMOVDQU Y14, WOFF(R8)

// func quantize16(work *int32, src *float64, stride int, scatter *int, rows, limit int, magic, bound float64) bool
TEXT ·quantize16(SB), NOSPLIT, $0-65
	MOVQ work+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $3, DX
	MOVQ scatter+24(FP), BX
	MOVQ rows+32(FP), CX
	MOVQ limit+40(FP), R9
	VBROADCASTSD magic+48(FP), Y6
	VBROADCASTSD bound+56(FP), Y7
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	VPCMPEQQ Y4, Y4, Y4

row:
	MOVQ (BX), R8 // scatter address p: the work row at work + p·16·4
	CMPQ R8, R9   // unsigned: a negative p is out of range too
	JAE  fail
	SHLQ $6, R8
	ADDQ DI, R8
	QUANT(0, Y0, Y11)
	QUANT(32, Y1, Y12)
	PACK(Y11, Y12, 0)
	QUANT(64, Y2, Y11)
	QUANT(96, Y3, Y12)
	PACK(Y11, Y12, 32)
	VMOVMSKPD Y4, AX // a word already failed: stop, the caller takes another path
	CMPL AX, $15
	JNE  fail
	ADDQ DX, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  row

	// Headroom: every lane's L1 <= bound = hi/scale (false for a NaN L1).
	VCMPPD    $0x12, Y7, Y0, Y0
	VCMPPD    $0x12, Y7, Y1, Y1
	VCMPPD    $0x12, Y7, Y2, Y2
	VCMPPD    $0x12, Y7, Y3, Y3
	VANDPD    Y0, Y4, Y4
	VANDPD    Y1, Y4, Y4
	VANDPD    Y2, Y4, Y4
	VANDPD    Y3, Y4, Y4
	VMOVMSKPD Y4, AX
	CMPL      AX, $15
	SETEQ     ret+64(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ret+64(FP)
	VZEROUPPER
	RET

// ROWSUM widens one 16-lane int32 row at OFF(SI) to int64 and leaves its
// four partial sums (lanes l, l+4, l+8, l+12 in qword l) in R; T is
// clobbered.
#define ROWSUM(OFF, R, T) \
	VPMOVSXDQ OFF(SI), R; \
	VPMOVSXDQ OFF+16(SI), T; \
	VPADDQ    T, R, R; \
	VPMOVSXDQ OFF+32(SI), T; \
	VPADDQ    T, R, R; \
	VPMOVSXDQ OFF+48(SI), T; \
	VPADDQ    T, R, R

// func rowSums16(acc *int64, x *int32, rows int)
//
// Four rows a, b, c, d per iteration: their partial-sum vectors are
// folded pairwise (unpack low/high qwords, add: a01 b01 | a23 b23), the
// two 128-bit halves of the ab and cd folds are paired up and added, and
// the vector of the four row sums a b c d is added to acc[r:r+4].  rows
// is a positive multiple of 4.
TEXT ·rowSums16(SB), NOSPLIT, $0-24
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), CX

quad:
	ROWSUM(0, Y0, Y8)
	ROWSUM(64, Y1, Y9)
	ROWSUM(128, Y2, Y10)
	ROWSUM(192, Y3, Y11)
	VPUNPCKLQDQ Y1, Y0, Y4 // a0 b0 | a2 b2
	VPUNPCKHQDQ Y1, Y0, Y5 // a1 b1 | a3 b3
	VPADDQ      Y5, Y4, Y4
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPADDQ      Y7, Y6, Y6
	VPERM2I128  $0x20, Y6, Y4, Y0 // ab low half | cd low half
	VPERM2I128  $0x31, Y6, Y4, Y1 // ab high half | cd high half
	VPADDQ      Y1, Y0, Y0
	VPADDQ      (DI), Y0, Y0
	VMOVDQU     Y0, (DI)
	ADDQ        $256, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	JNZ         quad
	VZEROUPPER
	RET
