//go:build amd64 && !purego

#include "textflag.h"

// QUANT proves and converts four lanes of one source row (see
// quantize16 in quantize_amd64.go): r = v·2^F into Y9, |r| added to the
// lane group's L1 accumulator ACC, the lane verdict — |r| ≤ hi and r
// integral — ANDed into Y4, and the int64 word stored at OFF(R8).  For
// |r| ≤ hi < 2^51, t = r + 1.5·2^52 is exact exactly when r is an
// integer, so (t − 1.5·2^52) == r is the integrality test and the low
// bits of t, minus those of the magic constant, are r as an int64.
// Y5 = 2^F, Y6 = magic, Y7 = hi, Y8 = the sign-clearing mask.
#define QUANT(OFF, ACC) \
	VMULPD  OFF(SI), Y5, Y9; \
	VANDPD  Y8, Y9, Y10; \
	VADDPD  Y10, ACC, ACC; \
	VCMPPD  $0x12, Y7, Y10, Y11; \
	VADDPD  Y6, Y9, Y12; \
	VSUBPD  Y6, Y12, Y13; \
	VCMPPD  $0, Y9, Y13, Y13; \
	VANDPD  Y13, Y11, Y11; \
	VANDPD  Y11, Y4, Y4; \
	VPSUBQ  Y6, Y12, Y12; \
	VMOVDQU Y12, OFF(R8)

// func quantize16(work *int64, src *float64, stride int, scatter *int, rows int, scale, hi float64) bool
TEXT ·quantize16(SB), NOSPLIT, $0-57
	MOVQ work+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $3, DX
	MOVQ scatter+24(FP), BX
	MOVQ rows+32(FP), CX
	VBROADCASTSD scale+40(FP), Y5
	VBROADCASTSD hi+48(FP), Y7
	MOVQ $0x4338000000000000, AX // 1.5·2^52
	MOVQ AX, X6
	VPBROADCASTQ X6, Y6
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	VPCMPEQQ Y4, Y4, Y4

row:
	MOVQ (BX), R8 // scatter address p: the work row at work + p·16·8
	SHLQ $7, R8
	ADDQ DI, R8
	QUANT(0, Y0)
	QUANT(32, Y1)
	QUANT(64, Y2)
	QUANT(96, Y3)
	VMOVMSKPD Y4, AX // a word already failed: stop, the Go loop redoes the tile
	CMPL AX, $15
	JNE  fail
	ADDQ DX, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  row

	// Headroom: every lane's L1 ≤ hi.
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
	SETEQ     ret+56(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET
