//go:build amd64 && !purego

#include "textflag.h"

// PASS8 is the body of the fused three-level butterfly pass (see pass8 in
// butterfly.go), written once and instantiated for every element type:
// SHIFT is log2 of the element size, MOV the unaligned 256-bit move, ADD
// and SUB the packed add and subtract of the element width.  Each
// iteration takes one YMM of lanes (four float64 or int64, eight int32)
// of the eight rows j, j+h, …, j+7h through levels h, 2h and 4h: 8
// loads, 24 adds and subtracts in the 16 YMM registers, 8 stores.  Every
// ADD/SUB has the operands, in the order, of the scalar schedule: level h
// takes the rows Y0–Y7 to a0–a7 in Y8–Y15, level 2h takes those to b0–b7
// back in Y0–Y7, level 4h leaves the results for rows 0–7 in Y8–Y15.
//
// SI walks the first row of a group, BX is that row's end, DI the end of
// the tile; DX = stride between the eight rows in bytes (hl << SHIFT),
// and R8, R9, R10 = 3, 5, 7 strides.
#define PASS8(SHIFT, MOV, ADD, SUB) \
	MOVQ x+0(FP), SI; \
	MOVQ n+8(FP), CX; \
	MOVQ hl+16(FP), DX; \
	SHLQ $SHIFT, DX; \
	SHLQ $SHIFT, CX; \
	LEAQ (SI)(CX*1), DI; \
	LEAQ (DX)(DX*2), R8; \
	LEAQ (DX)(DX*4), R9; \
	LEAQ (R8)(DX*4), R10; \
group: \
	CMPQ SI, DI; \
	JAE  done; \
	LEAQ (SI)(DX*1), BX; \
lanes: \
	MOV (SI), Y0; \
	MOV (SI)(DX*1), Y1; \
	MOV (SI)(DX*2), Y2; \
	MOV (SI)(R8*1), Y3; \
	MOV (SI)(DX*4), Y4; \
	MOV (SI)(R9*1), Y5; \
	MOV (SI)(R8*2), Y6; \
	MOV (SI)(R10*1), Y7; \
	ADD Y1, Y0, Y8; \
	SUB Y1, Y0, Y9; \
	ADD Y3, Y2, Y10; \
	SUB Y3, Y2, Y11; \
	ADD Y5, Y4, Y12; \
	SUB Y5, Y4, Y13; \
	ADD Y7, Y6, Y14; \
	SUB Y7, Y6, Y15; \
	ADD Y10, Y8, Y0; \
	SUB Y10, Y8, Y2; \
	ADD Y11, Y9, Y1; \
	SUB Y11, Y9, Y3; \
	ADD Y14, Y12, Y4; \
	SUB Y14, Y12, Y6; \
	ADD Y15, Y13, Y5; \
	SUB Y15, Y13, Y7; \
	ADD Y4, Y0, Y8; \
	SUB Y4, Y0, Y12; \
	ADD Y5, Y1, Y9; \
	SUB Y5, Y1, Y13; \
	ADD Y6, Y2, Y10; \
	SUB Y6, Y2, Y14; \
	ADD Y7, Y3, Y11; \
	SUB Y7, Y3, Y15; \
	MOV Y8, (SI); \
	MOV Y9, (SI)(DX*1); \
	MOV Y10, (SI)(DX*2); \
	MOV Y11, (SI)(R8*1); \
	MOV Y12, (SI)(DX*4); \
	MOV Y13, (SI)(R9*1); \
	MOV Y14, (SI)(R8*2); \
	MOV Y15, (SI)(R10*1); \
	ADDQ $32, SI; \
	CMPQ SI, BX; \
	JB   lanes; \
	ADDQ R10, SI; \
	JMP  group; \
done: \
	VZEROUPPER; \
	RET

// func pass8Float64(x *float64, n, hl int)
TEXT ·pass8Float64(SB), NOSPLIT, $0-24
	PASS8(3, VMOVUPD, VADDPD, VSUBPD)

// func pass8Int64(x *int64, n, hl int)
TEXT ·pass8Int64(SB), NOSPLIT, $0-24
	PASS8(3, VMOVDQU, VPADDQ, VPSUBQ)

// func pass8Int32(x *int32, n, hl int)
TEXT ·pass8Int32(SB), NOSPLIT, $0-24
	PASS8(2, VMOVDQU, VPADDD, VPSUBD)

// func haveAVX2() bool
TEXT ·haveAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7 // highest basic leaf
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET
