//go:build amd64 && !noasm

#include "textflag.h"

// func gemmRow4AVX2(dst *float32, dstStride int, a *float32, aStride int, b *float32, k, n int)
//
// dst[r*dstStride + j] += sum over p in [0,k) of a[r*aStride + p] * b[p*n + j]
// for r in [0,4), j in [0,n). Strides are in elements.
//
// Four output rows are accumulated together so that even for narrow n the
// multiply/add ports see 4x the independent work — a single row's
// accumulator chain is latency-bound below ~32 lanes. Lanes are independent
// output elements and every element accumulates its K terms from zero in
// ascending-p order with one VMULPS and one VADDPS rounding per term, the
// sum added to dst as the chunk is stored: bit-identical to the scalar
// kernel. Deliberately no VFMADD — fusing would single-round the
// multiply-add and break cross-tier bit-identity (see kernel.go).
//
// The output row is processed in chunks of 16, 8, 4 and 1 lanes. Register
// use: DI=dst, SI=a, DX=b, CX=k, R8=n, R9=b row stride bytes, R13=aStride
// bytes, R14=dstStride bytes, R10=jj (current lane index), AX=lanes
// remaining, BX=dst cursor at chunk edges / a row-3 cursor inside p-loops,
// R11=b cursor, R12=p countdown, R15=a row-0 cursor.
TEXT ·gemmRow4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R14
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), R13
	MOVQ b+32(FP), DX
	MOVQ k+40(FP), CX
	MOVQ n+48(FP), R8

	TESTQ CX, CX
	JZ    done
	SHLQ  $2, R14     // dst stride in bytes
	SHLQ  $2, R13     // a stride in bytes
	MOVQ  R8, R9
	SHLQ  $2, R9      // b row stride in bytes
	XORQ  R10, R10    // jj = 0

chunk16:
	MOVQ R8, AX
	SUBQ R10, AX      // lanes remaining
	CMPQ AX, $16
	JLT  chunk8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (DX)(R10*4), R11
	MOVQ CX, R12
	MOVQ SI, R15
	LEAQ (SI)(R13*2), BX
	ADDQ R13, BX      // a row-3 cursor

ploop16:
	VMOVUPS (R11), Y14
	VMOVUPS 32(R11), Y15
	VBROADCASTSS (R15), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y0, Y0
	VMULPS Y15, Y12, Y13
	VADDPS Y13, Y1, Y1
	VBROADCASTSS (R15)(R13*1), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y2, Y2
	VMULPS Y15, Y12, Y13
	VADDPS Y13, Y3, Y3
	VBROADCASTSS (R15)(R13*2), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y4, Y4
	VMULPS Y15, Y12, Y13
	VADDPS Y13, Y5, Y5
	VBROADCASTSS (BX), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y6, Y6
	VMULPS Y15, Y12, Y13
	VADDPS Y13, Y7, Y7
	ADDQ $4, R15
	ADDQ $4, BX
	ADDQ R9, R11
	DECQ R12
	JNZ  ploop16

	LEAQ (DI)(R10*4), BX
	VADDPS (BX), Y0, Y0
	VMOVUPS Y0, (BX)
	VADDPS 32(BX), Y1, Y1
	VMOVUPS Y1, 32(BX)
	ADDQ R14, BX
	VADDPS (BX), Y2, Y2
	VMOVUPS Y2, (BX)
	VADDPS 32(BX), Y3, Y3
	VMOVUPS Y3, 32(BX)
	ADDQ R14, BX
	VADDPS (BX), Y4, Y4
	VMOVUPS Y4, (BX)
	VADDPS 32(BX), Y5, Y5
	VMOVUPS Y5, 32(BX)
	ADDQ R14, BX
	VADDPS (BX), Y6, Y6
	VMOVUPS Y6, (BX)
	VADDPS 32(BX), Y7, Y7
	VMOVUPS Y7, 32(BX)
	ADDQ $16, R10
	JMP  chunk16

chunk8:
	CMPQ AX, $8
	JLT  chunk4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DX)(R10*4), R11
	MOVQ CX, R12
	MOVQ SI, R15
	LEAQ (SI)(R13*2), BX
	ADDQ R13, BX

ploop8:
	VMOVUPS (R11), Y14
	VBROADCASTSS (R15), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y0, Y0
	VBROADCASTSS (R15)(R13*1), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y1, Y1
	VBROADCASTSS (R15)(R13*2), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y2, Y2
	VBROADCASTSS (BX), Y12
	VMULPS Y14, Y12, Y13
	VADDPS Y13, Y3, Y3
	ADDQ $4, R15
	ADDQ $4, BX
	ADDQ R9, R11
	DECQ R12
	JNZ  ploop8

	LEAQ (DI)(R10*4), BX
	VADDPS (BX), Y0, Y0
	VMOVUPS Y0, (BX)
	ADDQ R14, BX
	VADDPS (BX), Y1, Y1
	VMOVUPS Y1, (BX)
	ADDQ R14, BX
	VADDPS (BX), Y2, Y2
	VMOVUPS Y2, (BX)
	ADDQ R14, BX
	VADDPS (BX), Y3, Y3
	VMOVUPS Y3, (BX)
	ADDQ $8, R10
	SUBQ $8, AX
	JMP  chunk8

chunk4:
	CMPQ AX, $4
	JLT  scalar
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	LEAQ (DX)(R10*4), R11
	MOVQ CX, R12
	MOVQ SI, R15
	LEAQ (SI)(R13*2), BX
	ADDQ R13, BX

ploop4:
	VMOVUPS (R11), X14
	VBROADCASTSS (R15), X12
	VMULPS X14, X12, X13
	VADDPS X13, X0, X0
	VBROADCASTSS (R15)(R13*1), X12
	VMULPS X14, X12, X13
	VADDPS X13, X1, X1
	VBROADCASTSS (R15)(R13*2), X12
	VMULPS X14, X12, X13
	VADDPS X13, X2, X2
	VBROADCASTSS (BX), X12
	VMULPS X14, X12, X13
	VADDPS X13, X3, X3
	ADDQ $4, R15
	ADDQ $4, BX
	ADDQ R9, R11
	DECQ R12
	JNZ  ploop4

	LEAQ (DI)(R10*4), BX
	VADDPS (BX), X0, X0
	VMOVUPS X0, (BX)
	ADDQ R14, BX
	VADDPS (BX), X1, X1
	VMOVUPS X1, (BX)
	ADDQ R14, BX
	VADDPS (BX), X2, X2
	VMOVUPS X2, (BX)
	ADDQ R14, BX
	VADDPS (BX), X3, X3
	VMOVUPS X3, (BX)
	ADDQ $4, R10
	SUBQ $4, AX
	JMP  chunk4

scalar:
	TESTQ AX, AX
	JZ    done
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	LEAQ  (DX)(R10*4), R11
	MOVQ  CX, R12
	MOVQ  SI, R15
	LEAQ  (SI)(R13*2), BX
	ADDQ  R13, BX

ploop1:
	VMOVSS (R11), X14
	VMOVSS (R15), X12
	VMULSS X14, X12, X13
	VADDSS X13, X0, X0
	VMOVSS (R15)(R13*1), X12
	VMULSS X14, X12, X13
	VADDSS X13, X1, X1
	VMOVSS (R15)(R13*2), X12
	VMULSS X14, X12, X13
	VADDSS X13, X2, X2
	VMOVSS (BX), X12
	VMULSS X14, X12, X13
	VADDSS X13, X3, X3
	ADDQ  $4, R15
	ADDQ  $4, BX
	ADDQ  R9, R11
	DECQ  R12
	JNZ   ploop1

	LEAQ  (DI)(R10*4), BX
	VADDSS (BX), X0, X0
	VMOVSS X0, (BX)
	ADDQ  R14, BX
	VADDSS (BX), X1, X1
	VMOVSS X1, (BX)
	ADDQ  R14, BX
	VADDSS (BX), X2, X2
	VMOVSS X2, (BX)
	ADDQ  R14, BX
	VADDSS (BX), X3, X3
	VMOVSS X3, (BX)
	ADDQ  $1, R10
	DECQ  AX
	JMP   scalar

done:
	VZEROUPPER
	RET
