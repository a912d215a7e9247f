//go:build amd64 && !noasm

#include "textflag.h"

// The vector bodies of the softmax kernels (softmax.go): the exponentials of
// softmaxExp and CrossEntropyGrad and the terms of entropyTerms, four float64
// lanes a YMM register. softmaxExpVec and crossEntropyGradVec return at once
// with from unless expAVX2 is set (the avx2 and avx512 tiers on a CPU with
// FMA), entropyTermsVec unless elemAVX2 is. Each lane performs Exp's or
// Log's float operations (explog.go) in their order, VFMADD213PD and
// VFNMADD231PD exactly where Exp calls math.FMA and nowhere else, VCVTPD2DQ
// for Exp's rounding of its exponent to the nearest integer, ties to even,
// and one rounding per operation.
//
// Exp's body takes only the lanes whose exponent k lies in [-1022, 1023],
// where the result is k's power of two times a value in [0.5, 2) and needs
// one multiply: every NaN, infinity, argument past the overflow bound and
// result on the subnormal or underflow path has its k outside, CVTPD2DQ's
// integer indefinite value included, so a group with such a lane returns to
// the reference. Log's body takes the positive finite values of float32
// probabilities, whose float64 is never subnormal, and writes +0 for a value
// that is not above 0 (a zero, a negative value, a NaN) as the reference
// skips it; a group with +Inf returns to the reference.
//
// The row bodies walk the batch a row at a time, AX the lane, R12 the end of
// its row, and a row's last group of fewer than four lanes through
// VMASKMOVPS/VMASKMOVPD, whose mask (X9, Y10) reads and writes only those
// lanes; R9 holds the group's lane bits, four or the masked ones, and a lane
// outside them cannot stop the body.

#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits;  \
	DATA name<>+8(SB)/8, $bits;  \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(expLog2e, 0x3FF71547652B82FE)
CONST4(expLn2U, 0x3FE62E42FEFA3000)
CONST4(expLn2L, 0x3D53DE6AF278ECE6)
CONST4(expSixteenth, 0x3FB0000000000000)
CONST4(expC8, 0x3EFA01A01A01A01A)
CONST4(expC7, 0x3F2A01A01A01A01A)
CONST4(expC6, 0x3F56C16C16C16C17)
CONST4(expC5, 0x3F81111111111111)
CONST4(expC4, 0x3FA5555555555555)
CONST4(expC3, 0x3FC5555555555555)
CONST4(fHalf, 0x3FE0000000000000)
CONST4(fOne, 0x3FF0000000000000)
CONST4(fTwo, 0x4000000000000000)
CONST4(expBias, 0x00000000000003FF)
CONST4(logMant, 0x000FFFFFFFFFFFFF)
CONST4(logHSqrt2, 0x3FE6A09E667F3BCD)
CONST4(logMagic, 0x4330000000000000)
CONST4(logMagicBias, 0x43300000000003FE)
CONST4(logLn2Hi, 0x3FE62E42FEE00000)
CONST4(logLn2Lo, 0x3DEA39EF35793C76)
CONST4(logL1, 0x3FE5555555555593)
CONST4(logL2, 0x3FD999999997FA04)
CONST4(logL3, 0x3FD2492494229359)
CONST4(logL4, 0x3FCC71C51D8E78AF)
CONST4(logL5, 0x3FC7466496CB03DE)
CONST4(logL6, 0x3FC39A09D078C69F)
CONST4(logL7, 0x3FC2F112DF3E5244)

// Four int32 lanes: Exp's exponent bounds (k > -1023 and not k > 1023),
// the lane numbers that build a row's tail mask, and +Inf's float32 bits.
DATA expKMax<>+0(SB)/4, $1023
DATA expKMax<>+4(SB)/4, $1023
DATA expKMax<>+8(SB)/4, $1023
DATA expKMax<>+12(SB)/4, $1023
GLOBL expKMax<>(SB), RODATA|NOPTR, $16
DATA expKMin<>+0(SB)/4, $-1023
DATA expKMin<>+4(SB)/4, $-1023
DATA expKMin<>+8(SB)/4, $-1023
DATA expKMin<>+12(SB)/4, $-1023
GLOBL expKMin<>(SB), RODATA|NOPTR, $16
DATA laneNum<>+0(SB)/4, $0
DATA laneNum<>+4(SB)/4, $1
DATA laneNum<>+8(SB)/4, $2
DATA laneNum<>+12(SB)/4, $3
GLOBL laneNum<>(SB), RODATA|NOPTR, $16
DATA f32Inf<>+0(SB)/4, $0x7F800000
DATA f32Inf<>+4(SB)/4, $0x7F800000
DATA f32Inf<>+8(SB)/4, $0x7F800000
DATA f32Inf<>+12(SB)/4, $0x7F800000
GLOBL f32Inf<>(SB), RODATA|NOPTR, $16

// Four int64 lanes: the lane numbers again, for a row's column numbers.
DATA laneNum64<>+0(SB)/8, $0
DATA laneNum64<>+8(SB)/8, $1
DATA laneNum64<>+16(SB)/8, $2
DATA laneNum64<>+24(SB)/8, $3
GLOBL laneNum64<>(SB), RODATA|NOPTR, $32

// EXPK starts Exp on the four arguments in Y0: X2 = k = t rounded to an
// integer, t = log2e·x; Y1 = float64(k); R11 = the bits of the lanes whose k
// lies in [-1022, 1023]. Clobbers X5, X6.
#define EXPK \
	VMULPD     expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2;                 \
	VPCMPGTD   expKMax<>(SB), X2, X5;  \
	VPCMPGTD   expKMin<>(SB), X2, X6;  \
	VPANDN     X6, X5, X6;             \
	VMOVMSKPS  X6, R11;                \
	VCVTDQ2PD  X2, Y1

// EXPR finishes Exp on lanes EXPK took: Y0 = Exp(x). Clobbers Y3, Y4.
#define EXPR \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0;      \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0;      \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC8<>(SB), Y3;            \
	VFMADD213PD  expC7<>(SB), Y0, Y3;        \
	VFMADD213PD  expC6<>(SB), Y0, Y3;        \
	VFMADD213PD  expC5<>(SB), Y0, Y3;        \
	VFMADD213PD  expC4<>(SB), Y0, Y3;        \
	VFMADD213PD  expC3<>(SB), Y0, Y3;        \
	VFMADD213PD  fHalf<>(SB), Y0, Y3;        \
	VFMADD213PD  fOne<>(SB), Y0, Y3;         \
	VMULPD       Y3, Y0, Y0;                 \
	VADDPD       fTwo<>(SB), Y0, Y3;         \
	VMULPD       Y3, Y0, Y0;                 \
	VADDPD       fTwo<>(SB), Y0, Y3;         \
	VMULPD       Y3, Y0, Y0;                 \
	VADDPD       fTwo<>(SB), Y0, Y3;         \
	VMULPD       Y3, Y0, Y0;                 \
	VADDPD       fTwo<>(SB), Y0, Y3;         \
	VFMADD213PD  fOne<>(SB), Y3, Y0;         \
	VPMOVSXDQ    X2, Y4;                     \
	VPADDQ       expBias<>(SB), Y4, Y4;      \
	VPSLLQ       $52, Y4, Y4;                \
	VMULPD       Y4, Y0, Y0

// LOG takes Log of the four positive normal float64 values in Y0 into Y0, as
// log_amd64.s does, k -= m and f1 *= 1 + m for m = 1 or 0. The exponent's
// float64 is (2^52 + e) - (2^52 + 1022), exactly float64(e - 1022).
// Clobbers Y1 to Y6.
#define LOG \
	VPAND     logMant<>(SB), Y0, Y1;      \
	VPOR      fHalf<>(SB), Y1, Y1;        \
	VPSRLQ    $52, Y0, Y2;                \
	VPOR      logMagic<>(SB), Y2, Y2;     \
	VSUBPD    logMagicBias<>(SB), Y2, Y2; \
	VMOVUPD   logHSqrt2<>(SB), Y3;        \
	VCMPPD    $5, Y1, Y3, Y3;             \
	VANDPD    fOne<>(SB), Y3, Y3;         \
	VSUBPD    Y3, Y2, Y2;                 \
	VADDPD    fOne<>(SB), Y3, Y3;         \
	VMULPD    Y3, Y1, Y1;                 \
	VSUBPD    fOne<>(SB), Y1, Y1;         \
	VADDPD    fTwo<>(SB), Y1, Y3;         \
	VDIVPD    Y3, Y1, Y3;                 \
	VMULPD    Y3, Y3, Y4;                 \
	VMULPD    Y4, Y4, Y5;                 \
	VMULPD    logL7<>(SB), Y5, Y6;        \
	VADDPD    logL5<>(SB), Y6, Y6;        \
	VMULPD    Y5, Y6, Y6;                 \
	VADDPD    logL3<>(SB), Y6, Y6;        \
	VMULPD    Y5, Y6, Y6;                 \
	VADDPD    logL1<>(SB), Y6, Y6;        \
	VMULPD    Y6, Y4, Y4;                 \
	VMULPD    logL6<>(SB), Y5, Y6;        \
	VADDPD    logL4<>(SB), Y6, Y6;        \
	VMULPD    Y5, Y6, Y6;                 \
	VADDPD    logL2<>(SB), Y6, Y6;        \
	VMULPD    Y6, Y5, Y5;                 \
	VADDPD    Y5, Y4, Y4;                 \
	VMULPD    fHalf<>(SB), Y1, Y6;        \
	VMULPD    Y1, Y6, Y6;                 \
	VADDPD    Y6, Y4, Y4;                 \
	VMULPD    Y4, Y3, Y3;                 \
	VMULPD    logLn2Lo<>(SB), Y2, Y4;     \
	VADDPD    Y4, Y3, Y3;                 \
	VSUBPD    Y3, Y6, Y6;                 \
	VSUBPD    Y1, Y6, Y6;                 \
	VMULPD    logLn2Hi<>(SB), Y2, Y2;     \
	VSUBPD    Y6, Y2, Y0

// ROWS sets up a row body from the lane count in CX and the row length in
// R8, jumping to none when there is nothing to do: R10 = the row of lane
// AX = from, R12 = the end of that row. The per-row operand of length
// rowsLen must cover every row.
#define ROWS(rowsLen) \
	TESTQ R8, R8;         \
	JLE   none;           \
	MOVQ  rowsLen, R9;    \
	IMULQ R8, R9;         \
	CMPQ  R9, CX;         \
	JLT   none;           \
	CMPQ  AX, CX;         \
	JGE   none;           \
	XORQ  DX, DX;         \
	DIVQ  R8;             \
	MOVQ  AX, R10;        \
	MOVQ  from+88(FP), AX; \
	MOVQ  AX, R12;        \
	SUBQ  DX, R12;        \
	ADDQ  R8, R12

// GROUP loads the group at lane AX of the float32 operand at SI into X0:
// four lanes, R9 = 15, when the row has four left, and otherwise its BX
// last lanes, zeros above them, with their mask in X9 and their bits in R9.
#define GROUP \
	MOVQ       R12, BX;               \
	SUBQ       AX, BX;                \
	CMPQ       BX, $4;                \
	JLT        part;                  \
	VMOVUPS    (SI)(AX*4), X0;        \
	MOVL       $15, R9;               \
	JMP        loaded;                \
part:                                 \
	VMOVQ      BX, X9;                \
	VPBROADCASTD X9, X9;              \
	VPCMPGTD   laneNum<>(SB), X9, X9; \
	VMASKMOVPS (SI)(AX*4), X9, X0;    \
	VMOVMSKPS  X9, R9;                \
loaded:

// func softmaxExpVec(e []float64, x, top []float32, cols int, rho float64, from int) int
//
// e[k] = Exp(float64(x[k] - top[row])/rho), top the row maxima: VSUBPS, VCVTPS2PD and VDIVPD,
// the division left out when rho is 1, where it changes no bit. Register
// use: DI = e, SI = x, R14 = top, R8 = cols, CX = lanes, X8 = the row's
// maximum, Y11 = rho, R13 = 0 when rho is 1.
TEXT ·softmaxExpVec(SB), NOSPLIT, $0-104
	MOVQ from+88(FP), AX
	MOVQ AX, ret+96(FP)
	CMPB ·expAVX2(SB), $0
	JEQ  none
	MOVQ e_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ e_len+8(FP), CX
	JLT  none
	MOVQ top_base+48(FP), R14
	MOVQ cols+72(FP), R8
	ROWS(top_len+56(FP))
	VBROADCASTSD rho+80(FP), Y11
	MOVQ         rho+80(FP), R13
	MOVQ         $0x3FF0000000000000, R15
	XORQ         R15, R13

row:
	VBROADCASTSS (R14)(R10*4), X8

group:
	GROUP
	VSUBPS    X8, X0, X0
	VCVTPS2PD X0, Y0
	TESTQ     R13, R13
	JZ        scaled
	VDIVPD    Y11, Y0, Y0

scaled:
	EXPK
	ANDL R9, R11
	CMPL R11, R9
	JNE  special
	EXPR
	CMPL R9, $15
	JNE  tail
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R12
	JLT     group
	JMP     nextrow

tail:
	VPMOVSXDQ  X9, Y10
	VMASKMOVPD Y0, Y10, (DI)(AX*8)
	MOVQ       R12, AX

nextrow:
	CMPQ AX, CX
	JGE  done
	INCQ R10
	ADDQ R8, R12
	JMP  row

done:
	VZEROUPPER
	MOVQ CX, ret+96(FP)
	RET

special:
	VZEROUPPER
	MOVQ AX, ret+96(FP)

none:
	RET

// func crossEntropyGradVec(d, logp []float32, labels []int, cols int, scale float64, from int) int
//
// d[k] = float32((Exp(float64(logp[k])) - ind)·scale): ind is 1 in the lane
// whose column equals the row's label, VPCMPEQQ of the group's column
// numbers (Y13) against the label (Y12). Register use: DI = d, SI = logp,
// R14 = labels, R8 = cols, CX = lanes, Y11 = scale.
TEXT ·crossEntropyGradVec(SB), NOSPLIT, $0-104
	MOVQ from+88(FP), AX
	MOVQ AX, ret+96(FP)
	CMPB ·expAVX2(SB), $0
	JEQ  none
	MOVQ d_base+0(FP), DI
	MOVQ logp_base+24(FP), SI
	MOVQ logp_len+32(FP), CX
	CMPQ d_len+8(FP), CX
	JLT  none
	MOVQ labels_base+48(FP), R14
	MOVQ cols+72(FP), R8
	ROWS(labels_len+56(FP))
	VBROADCASTSD scale+80(FP), Y11

row:
	VPBROADCASTQ (R14)(R10*8), Y12
	MOVQ         R12, R13
	SUBQ         R8, R13 // the row's first lane

group:
	GROUP
	VCVTPS2PD X0, Y0
	EXPK
	ANDL      R9, R11
	CMPL      R11, R9
	JNE       special
	EXPR
	MOVQ         AX, R15
	SUBQ         R13, R15
	VMOVQ        R15, X13
	VPBROADCASTQ X13, Y13
	VPADDQ       laneNum64<>(SB), Y13, Y13
	VPCMPEQQ     Y12, Y13, Y13
	VANDPD       fOne<>(SB), Y13, Y13
	VSUBPD       Y13, Y0, Y0
	VMULPD       Y11, Y0, Y0
	VCVTPD2PSY   Y0, X0
	CMPL         R9, $15
	JNE          tail
	VMOVUPS      X0, (DI)(AX*4)
	ADDQ         $4, AX
	CMPQ         AX, R12
	JLT          group
	JMP          nextrow

tail:
	VMASKMOVPS X0, X9, (DI)(AX*4)
	MOVQ       R12, AX

nextrow:
	CMPQ AX, CX
	JGE  done
	INCQ R10
	ADDQ R8, R12
	JMP  row

done:
	VZEROUPPER
	MOVQ CX, ret+96(FP)
	RET

special:
	VZEROUPPER
	MOVQ AX, ret+96(FP)

none:
	RET

// func entropyTermsVec(t []float64, p []float32, from int) int
//
// t[k] = float64(q·Log(q)), q = float64(p[k]), where 0 < p[k] < +Inf as
// int32 bits, and +0 where p[k] is not above 0, over whole groups of four
// lanes. Register use: DI = t, SI = p, CX = the end of the whole groups
// less 3, X7 = 0, X8 = +Inf's bits, Y10 = q.
TEXT ·entropyTermsVec(SB), NOSPLIT, $0-64
	MOVQ from+48(FP), AX
	MOVQ AX, ret+56(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ t_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ p_len+32(FP), CX
	CMPQ t_len+8(FP), CX
	JLT  none
	SUBQ    $3, CX
	VPXOR   X7, X7, X7
	VMOVDQU f32Inf<>(SB), X8
	JMP     test

loop:
	VMOVUPS   (SI)(AX*4), X0
	VPCMPEQD  X8, X0, X1
	VMOVMSKPS X1, R11
	TESTL     R11, R11
	JNZ       special
	VPCMPGTD  X7, X0, X1 // above +0 as bits
	VPCMPGTD  X0, X8, X2 // below +Inf as bits
	VPAND     X2, X1, X1
	VPMOVSXDQ X1, Y9
	VCVTPS2PD X0, Y0
	VMOVAPD   Y0, Y10
	LOG
	VMULPD    Y0, Y10, Y0
	VANDPD    Y9, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

test:
	CMPQ AX, CX
	JLT  loop

special:
	VZEROUPPER
	MOVQ AX, ret+56(FP)

none:
	RET
