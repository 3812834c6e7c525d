#include "textflag.h"

// func maxInto(dst, src []float32)
//
// MAXPS d, s keeps d where d > s and takes s otherwise; on maxSafe data
// the two differ only when d < s, so either order gives the builtin
// max's bits.
TEXT ·maxInto(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, BX
	SHRQ $2, BX
	JEQ  tail

quad:
	MOVUPS (DI), X0
	MOVUPS (SI), X1
	MAXPS  X1, X0                 // max(dst, src)
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	DECQ   BX
	JNE    quad

tail:
	ANDQ $3, CX
	JEQ  done

one:
	MOVSS (DI), X0
	MOVSS (SI), X1
	MAXSS X1, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JNE   one

done:
	RET

// func relu(dst, src []float32)
//
// MAXPS v, 0 keeps v where v > 0 and takes the +0 source operand
// otherwise: NaN (unordered), −0 (equal to +0) and +0 all give +0.
TEXT ·relu(SB), NOSPLIT, $0-48
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	XORPS X7, X7
	MOVQ  CX, BX
	SHRQ  $2, BX
	JEQ   tail

quad:
	MOVUPS (SI), X0
	MAXPS  X7, X0                 // v > 0 ? v : +0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	DECQ   BX
	JNE    quad

tail:
	ANDQ $3, CX
	JEQ  done

one:
	MOVSS (SI), X0
	MAXSS X7, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JNE   one

done:
	RET

// func maxSafeQuads(data []float32) bool
//
// A float32 is NaN when its bits without the sign exceed +Inf's
// (0x7f800000); both sides are below 2^31, so the signed PCMPGTL
// compares them correctly. −0 is the one value whose bits are
// 0x80000000. Every lane that is either sets all its mask bits, and
// the masks are ORed into X0 until one PMOVMSKB at the end.
TEXT ·maxSafeQuads(SB), NOSPLIT, $0-25
	MOVQ   data_base+0(FP), SI
	MOVQ   data_len+8(FP), CX
	SHRQ   $2, CX
	PXOR   X0, X0
	MOVQ   $0x7fffffff, AX
	MOVQ   AX, X5
	PSHUFD $0, X5, X5             // sign-clearing mask
	MOVQ   $0x7f800000, AX
	MOVQ   AX, X6
	PSHUFD $0, X6, X6             // +Inf
	MOVQ   $0x80000000, AX
	MOVQ   AX, X7
	PSHUFD $0, X7, X7             // −0
	TESTQ  CX, CX
	JEQ    done

loop:
	MOVOU   (SI), X1
	MOVO    X1, X2
	PAND    X5, X2
	PCMPGTL X6, X2                // NaN lanes
	PCMPEQL X7, X1                // −0 lanes
	POR     X2, X0
	POR     X1, X0
	ADDQ    $16, SI
	DECQ    CX
	JNE     loop

done:
	PMOVMSKB X0, AX
	TESTL    AX, AX
	SETEQ    ret+24(FP)
	RET
