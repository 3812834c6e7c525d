#include "textflag.h"

// func kernel8(cs, arow, b []float32, n int)
//
// Per term x: skip when arow[x] == 0 (UCOMISS sets ZF for ±0 and, with
// PF, for a NaN, which must not be skipped); else broadcast arow[x],
// multiply the eight B values into it (av·b) and add the products to C
// (c+product). Each lane rounds exactly as MULSS and ADDSS do. When
// both operands are NaN, SSE keeps the first one's payload, so a NaN in
// A wins over one in B, and a NaN sum over a NaN product, as in the
// package contract.
TEXT ·kernel8(SB), NOSPLIT, $0-80
	MOVQ   cs_base+0(FP), DI
	MOVQ   arow_base+24(FP), SI
	MOVQ   arow_len+32(FP), CX
	MOVQ   b_base+48(FP), DX
	MOVQ   n+72(FP), BX
	SHLQ   $2, BX                 // B row stride in bytes
	MOVUPS (DI), X0               // c[0:4]
	MOVUPS 16(DI), X1             // c[4:8]
	XORPS  X7, X7
	TESTQ  CX, CX
	JEQ    done

loop:
	MOVSS   (SI), X2
	UCOMISS X7, X2
	JNE     term                  // nonzero
	JPC     next                  // ±0; a NaN sets PF and falls through

term:
	SHUFPS $0, X2, X2             // av in all four lanes
	MOVAPS X2, X5
	MOVUPS (DX), X3
	MOVUPS 16(DX), X4
	MULPS  X3, X2                 // av·b
	MULPS  X4, X5
	ADDPS  X2, X0                 // c+product
	ADDPS  X5, X1

next:
	ADDQ $4, SI
	ADDQ BX, DX
	DECQ CX
	JNE  loop

done:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	RET
