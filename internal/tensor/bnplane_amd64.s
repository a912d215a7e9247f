//go:build amd64 && !noasm

#include "textflag.h"

// The vector bodies of BatchNorm's plane kernels (elem.go: BNPlaneSum,
// BNPlaneSqDev, BNPlaneParamGrads). Every body returns at once with 0 unless
// elemAVX2 is set (the avx2 and avx512 tiers), the plane length is a
// positive multiple of 4, a per-channel operand is long enough and there are
// at least 4 channels. Otherwise it does the first C&^3 channels of every
// whole sample and returns C&^3; the reference does the other channels.
//
// A pass takes four planes of one sample, channels g to g+3, as the four
// float64 lanes of a YMM register. Four VCVTPS2PD loads widen values k to
// k+3 of each plane (a third faster, at BenchmarkBNPlanes, than transposing
// the float32 values and widening them in registers); TRANSPOSE4D turns
// those rows into four registers, one per k, each holding that value of the
// four planes; and the lanes add them in
// ascending k, so every plane's chain is the reference's chain, one rounding
// per add. The sums keep a plane's chain from +0 in Y0 and add it to the
// channel's in Y8 after the plane; the γ/β gradients keep each channel's two
// chains in Y8 and Y9 across every sample. No chain is reordered: only
// independent chains run side by side.
//
// Register use: DI = the per-channel operand at channel g, SI = plane (0, g),
// R8 = the pass's read pointer in plane (i, g), DX = the end of that plane,
// R9 = the plane length in bytes, R12 = three plane lengths, R10 = the
// sample length in bytes, R11 = samples, CX = samples left, R13 = g,
// BX = C&^3, R14 = plane (i, g).

// TRANSPOSE4D transposes four rows of four float64, r0 to r3, through four
// scratch registers: afterwards c0 holds every row's value 0, c1 value 1,
// c2 value 2 and c3 value 3, row j in lane j. c0 to c3 may be r0 to r3.
#define TRANSPOSE4D(r0, r1, r2, r3, t0, t1, t2, t3, c0, c1, c2, c3) \
	VUNPCKLPD  r1, r0, t0;       \
	VUNPCKHPD  r1, r0, t1;       \
	VUNPCKLPD  r3, r2, t2;       \
	VUNPCKHPD  r3, r2, t3;       \
	VPERM2F128 $0x20, t2, t0, c0; \
	VPERM2F128 $0x20, t3, t1, c1; \
	VPERM2F128 $0x31, t2, t0, c2; \
	VPERM2F128 $0x31, t3, t1, c3

// LOAD4D widens values k to k+3 of the four planes at base into r0 to r3,
// one plane a register.
#define LOAD4D(base, r0, r1, r2, r3) \
	VCVTPS2PD (base), r0;        \
	VCVTPS2PD (base)(R9*1), r1;  \
	VCVTPS2PD (base)(R9*2), r2;  \
	VCVTPS2PD (base)(R12*1), r3

// PLANES sets up the walk shared by the three bodies from the plane length
// in R9 and the channel count in CX, and jumps to none when the body does
// nothing: BX = C&^3, R11 = the whole samples in the float32 length at
// xlen, R9, R10 and R12 in bytes as above, R13 = 0.
#define PLANES(xlen) \
	CMPQ  R9, $4;            \
	JLT   none;              \
	TESTQ $3, R9;            \
	JNZ   none;              \
	MOVQ  CX, BX;            \
	ANDQ  $-4, BX;           \
	JZ    none;              \
	MOVQ  CX, R10;           \
	IMULQ R9, R10;           \
	MOVQ  xlen, AX;          \
	XORQ  DX, DX;            \
	DIVQ  R10;               \
	TESTQ AX, AX;            \
	JZ    none;              \
	MOVQ  AX, R11;           \
	SHLQ  $2, R10;           \
	SHLQ  $2, R9;            \
	LEAQ  (R9)(R9*2), R12;   \
	XORQ  R13, R13

// func bnPlaneSumVec(sum []float64, x []float32, spatial int) int
TEXT ·bnPlaneSumVec(SB), NOSPLIT, $0-64
	MOVQ $0, ret+56(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ sum_base+0(FP), DI
	MOVQ sum_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ spatial+48(FP), R9
	PLANES(x_len+32(FP))

group:
	VMOVUPD (DI), Y8
	MOVQ    SI, R14
	MOVQ    R11, CX

plane:
	VXORPD Y0, Y0, Y0
	MOVQ   R14, R8
	LEAQ   (R14)(R9*1), DX

sum4:
	LOAD4D(R8, Y1, Y2, Y3, Y4)
	TRANSPOSE4D(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y9, Y1, Y2, Y3, Y4)
	VADDPD    Y1, Y0, Y0 // s + x, k
	VADDPD    Y2, Y0, Y0 // k+1
	VADDPD    Y3, Y0, Y0 // k+2
	VADDPD    Y4, Y0, Y0 // k+3
	ADDQ      $16, R8
	CMPQ      R8, DX
	JLT       sum4
	VADDPD    Y0, Y8, Y8 // sum + s
	ADDQ      R10, R14
	DECQ      CX
	JNZ       plane
	VMOVUPD   Y8, (DI)
	ADDQ      $32, DI
	LEAQ      (SI)(R9*4), SI
	ADDQ      $4, R13
	CMPQ      R13, BX
	JLT       group
	VZEROUPPER
	MOVQ      BX, ret+56(FP)

none:
	RET

// func bnPlaneSqDevVec(sq, mean []float64, x []float32, spatial int) int
//
// R15 = mean at channel g, Y10 its four lanes.
TEXT ·bnPlaneSqDevVec(SB), NOSPLIT, $0-88
	MOVQ $0, ret+80(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ sq_base+0(FP), DI
	MOVQ sq_len+8(FP), CX
	CMPQ mean_len+32(FP), CX
	JLT  none
	MOVQ mean_base+24(FP), R15
	MOVQ x_base+48(FP), SI
	MOVQ spatial+72(FP), R9
	PLANES(x_len+56(FP))

group:
	VMOVUPD (DI), Y8
	VMOVUPD (R15), Y10
	MOVQ    SI, R14
	MOVQ    R11, CX

plane:
	VXORPD Y0, Y0, Y0
	MOVQ   R14, R8
	LEAQ   (R14)(R9*1), DX

sq4:
	LOAD4D(R8, Y1, Y2, Y3, Y4)
	TRANSPOSE4D(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y9, Y1, Y2, Y3, Y4)
	VSUBPD    Y10, Y1, Y1 // d = x - mean
	VSUBPD    Y10, Y2, Y2
	VSUBPD    Y10, Y3, Y3
	VSUBPD    Y10, Y4, Y4
	VMULPD    Y1, Y1, Y1  // d·d
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VMULPD    Y4, Y4, Y4
	VADDPD    Y1, Y0, Y0  // s + d·d, k
	VADDPD    Y2, Y0, Y0  // k+1
	VADDPD    Y3, Y0, Y0  // k+2
	VADDPD    Y4, Y0, Y0  // k+3
	ADDQ      $16, R8
	CMPQ      R8, DX
	JLT       sq4
	VADDPD    Y0, Y8, Y8  // sq + s
	ADDQ      R10, R14
	DECQ      CX
	JNZ       plane
	VMOVUPD   Y8, (DI)
	ADDQ      $32, DI
	ADDQ      $32, R15
	LEAQ      (SI)(R9*4), SI
	ADDQ      $4, R13
	CMPQ      R13, BX
	JLT       group
	VZEROUPPER
	MOVQ      BX, ret+80(FP)

none:
	RET

// func bnPlaneParamGradsVec(dgamma, dbeta []float64, dy, xhat []float32, spatial int) int
//
// R15 = dbeta at channel g; SI walks dy's planes and AX is xhat's distance
// from dy, the same for every plane.
TEXT ·bnPlaneParamGradsVec(SB), NOSPLIT, $0-112
	MOVQ $0, ret+104(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dgamma_base+0(FP), DI
	MOVQ dgamma_len+8(FP), CX
	CMPQ dbeta_len+32(FP), CX
	JLT  none
	MOVQ dbeta_base+24(FP), R15
	MOVQ dy_base+48(FP), SI
	MOVQ dy_len+56(FP), AX
	CMPQ xhat_len+80(FP), AX
	JLT  none
	MOVQ spatial+96(FP), R9
	PLANES(dy_len+56(FP))
	MOVQ xhat_base+72(FP), AX
	SUBQ SI, AX

group:
	VMOVUPD (DI), Y8
	VMOVUPD (R15), Y9
	MOVQ    SI, R14
	MOVQ    R11, CX

plane:
	MOVQ R14, R8
	LEAQ (R14)(R9*1), DX

grad4:
	LOAD4D(R8, Y0, Y1, Y2, Y3)
	TRANSPOSE4D(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	LEAQ      (R8)(AX*1), R8
	LOAD4D(R8, Y10, Y11, Y12, Y13)
	SUBQ      AX, R8
	TRANSPOSE4D(Y10, Y11, Y12, Y13, Y4, Y5, Y6, Y7, Y10, Y11, Y12, Y13)
	VMULPD    Y10, Y0, Y10 // dy·xhat
	VADDPD    Y10, Y8, Y8  // dgamma + dy·xhat, k
	VADDPD    Y0, Y9, Y9   // dbeta + dy, k
	VMULPD    Y11, Y1, Y11
	VADDPD    Y11, Y8, Y8  // k+1
	VADDPD    Y1, Y9, Y9
	VMULPD    Y12, Y2, Y12
	VADDPD    Y12, Y8, Y8  // k+2
	VADDPD    Y2, Y9, Y9
	VMULPD    Y13, Y3, Y13
	VADDPD    Y13, Y8, Y8  // k+3
	VADDPD    Y3, Y9, Y9
	ADDQ      $16, R8
	CMPQ      R8, DX
	JLT       grad4
	ADDQ      R10, R14
	DECQ      CX
	JNZ       plane
	VMOVUPD   Y8, (DI)
	VMOVUPD   Y9, (R15)
	ADDQ      $32, DI
	ADDQ      $32, R15
	LEAQ      (SI)(R9*4), SI
	ADDQ      $4, R13
	CMPQ      R13, BX
	JLT       group
	VZEROUPPER
	MOVQ      BX, ret+104(FP)

none:
	RET
