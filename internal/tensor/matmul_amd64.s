//go:build amd64 && !noasm

#include "textflag.h"

// func gemmRowSSE(dst, a, b *float32, k, n int)
//
// dst[j] += sum over p in [0,k) of a[p] * b[p*n + j], for j in [0,n).
//
// The output row is processed in chunks of 16, 4 and 1 lanes. For each chunk
// the accumulators start at zero and live in XMM registers across the whole
// reduction loop, so the only streaming traffic is a[p] (broadcast) and the
// b rows; the finished sums are added to dst as the chunk is stored. Lanes
// are independent output elements: each accumulates its K terms in
// ascending-p order with one MULPS/ADDPS rounding pair per term,
// bit-identical to the scalar kernel. SSE only (amd64 baseline); unaligned
// loads throughout.
//
// Register use: DI=dst, SI=a, DX=b, CX=k, R8=n, R9=row stride in bytes,
// R10=jj (current lane index), AX=lanes remaining, BX=dst chunk pointer,
// R11=b chunk pointer, R12=p countdown, R13=a cursor, X9=dst chunk at the
// store.
TEXT ·gemmRowSSE(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8

	TESTQ CX, CX
	JZ   done
	MOVQ R8, R9
	SHLQ $2, R9       // stride = n * sizeof(float32)
	XORQ R10, R10     // jj = 0

chunk16:
	MOVQ R8, AX
	SUBQ R10, AX      // lanes remaining
	CMPQ AX, $16
	JLT  chunk4
	LEAQ (DI)(R10*4), BX
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	LEAQ (DX)(R10*4), R11
	MOVQ CX, R12
	MOVQ SI, R13

ploop16:
	MOVSS  (R13), X0
	SHUFPS $0, X0, X0
	MOVUPS 0(R11), X5
	MULPS  X0, X5
	ADDPS  X5, X1
	MOVUPS 16(R11), X6
	MULPS  X0, X6
	ADDPS  X6, X2
	MOVUPS 32(R11), X7
	MULPS  X0, X7
	ADDPS  X7, X3
	MOVUPS 48(R11), X8
	MULPS  X0, X8
	ADDPS  X8, X4
	ADDQ   $4, R13
	ADDQ   R9, R11
	DECQ   R12
	JNZ    ploop16

	MOVUPS 0(BX), X9
	ADDPS  X9, X1
	MOVUPS X1, 0(BX)
	MOVUPS 16(BX), X9
	ADDPS  X9, X2
	MOVUPS X2, 16(BX)
	MOVUPS 32(BX), X9
	ADDPS  X9, X3
	MOVUPS X3, 32(BX)
	MOVUPS 48(BX), X9
	ADDPS  X9, X4
	MOVUPS X4, 48(BX)
	ADDQ   $16, R10
	JMP    chunk16

chunk4:
	CMPQ AX, $4
	JLT  scalar
	LEAQ (DI)(R10*4), BX
	XORPS X1, X1
	LEAQ (DX)(R10*4), R11
	MOVQ CX, R12
	MOVQ SI, R13

ploop4:
	MOVSS  (R13), X0
	SHUFPS $0, X0, X0
	MOVUPS (R11), X5
	MULPS  X0, X5
	ADDPS  X5, X1
	ADDQ   $4, R13
	ADDQ   R9, R11
	DECQ   R12
	JNZ    ploop4

	MOVUPS (BX), X9
	ADDPS  X9, X1
	MOVUPS X1, (BX)
	ADDQ   $4, R10
	SUBQ   $4, AX
	JMP    chunk4

scalar:
	TESTQ AX, AX
	JZ    done
	LEAQ  (DI)(R10*4), BX
	XORPS X1, X1
	LEAQ  (DX)(R10*4), R11
	MOVQ  CX, R12
	MOVQ  SI, R13

ploop1:
	MOVSS (R13), X0
	MULSS (R11), X0
	ADDSS X0, X1
	ADDQ  $4, R13
	ADDQ  R9, R11
	DECQ  R12
	JNZ   ploop1

	ADDSS (BX), X1
	MOVSS X1, (BX)
	ADDQ  $1, R10
	DECQ  AX
	JMP   scalar

done:
	RET
