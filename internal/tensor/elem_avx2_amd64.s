//go:build amd64 && !noasm

#include "textflag.h"

// The vector bodies of the lane kernels (elem.go). Every body returns at
// once with 0 unless elemAVX2 is set (the avx2 and avx512 tiers), and also
// when an operand is shorter than the body would read, leaving every lane to
// the portable reference. Otherwise it handles whole 8-lane chunks — the
// first len&^7 elements, or the first C&^7 columns of every full row — and
// returns that count; the reference does the rest.
//
// Each lane performs the reference's operations in its order with the same
// first operand (Go's VADDPS Y2, Y1, Y0 is Y0 = Y1 + Y2), one rounding per
// operation and no VFMADD. float32 widens to float64 with VCVTPS2PD and
// narrows with VCVTPD2PS, exactly as Go's conversions do under the default
// MXCSR. float64 kernels run two 4-lane YMM halves per 8-column chunk.
//
// Column kernels walk the rows in order and, within a row, the column
// chunks, so each column sees its terms in row order as in the reference.
// Register use in them: AX = column index, BX = body columns, CX = row
// stride in bytes, R8 = end of x, R9 = end of the current row.

// The macros of quantizeInt8PairVec, defined before every TEXT so that vet
// reads their frame offsets as no function's.

// SPLITMIX steps the chain in x to Splitmix64(x), with t as scratch, SI
// holding the increment and DI and R8 the two multipliers.
#define SPLITMIX(x, t) \
	ADDQ  SI, x;  \
	MOVQ  x, t;   \
	SHRQ  $30, t; \
	XORQ  t, x;   \
	IMULQ DI, x;  \
	MOVQ  x, t;   \
	SHRQ  $27, t; \
	XORQ  t, x;   \
	IMULQ R8, x;  \
	MOVQ  x, t;   \
	SHRQ  $31, t; \
	XORQ  t, x

// DRAWS8 steps chain a (AX) and chain b (BX) eight times each and keeps the
// states for lanes R13 to R13+7 in the frame: a's lane l at 8l(SP), b's at
// 512+8l(SP).
#define DRAWS8 \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 0(SP)(R13*8); MOVQ BX, 512(SP)(R13*8);   \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 8(SP)(R13*8); MOVQ BX, 520(SP)(R13*8);   \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 16(SP)(R13*8); MOVQ BX, 528(SP)(R13*8);  \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 24(SP)(R13*8); MOVQ BX, 536(SP)(R13*8);  \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 32(SP)(R13*8); MOVQ BX, 544(SP)(R13*8);  \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 40(SP)(R13*8); MOVQ BX, 552(SP)(R13*8);  \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 48(SP)(R13*8); MOVQ BX, 560(SP)(R13*8);  \
	SPLITMIX(AX, CX); SPLITMIX(BX, DX); MOVQ AX, 56(SP)(R13*8); MOVQ BX, 568(SP)(R13*8)

// QUANT8 quantizes lanes R13-16 to R13-9 of the block at d into the bytes at
// q, at the inverse scale in inv, with the draws the top halves of their
// states, kept in the frame from st(SP)(R13*8) on, two groups behind the
// steps. The eight lanes run as two float64 halves. A draw shifted down in its 64-bit lane, ORed into
// the bits of 2^52 and less 2^52, is float64(u) exactly. The coin adds one to
// floor(q) where the sign bit of u - t is set (VBLENDVPD selects on it),
// exactly, before the conversion to int32; VCVTTPD2DQ answers 0x80000000 out
// of range as Go's conversion does on amd64, so even there the sum is
// int32(lo) + up as the reference wraps it. The clamp to ±127 runs on
// int16s: saturating int32 to int16 keeps each value's side of ±127, and the
// narrowing to bytes saturates nothing.
#define QUANT8(st, inv, d, q) \
	VMOVDQU     st(SP)(R13*8), Y4;    \
	VMOVDQU     st+32(SP)(R13*8), Y5; \
	VPSRLQ      $32, Y4, Y4;          \
	VPSRLQ      $32, Y5, Y5;          \
	VCVTPS2PD   -64(d)(R13*4), Y0;    \
	VCVTPS2PD   -48(d)(R13*4), Y1;    \
	VMULPD      inv, Y0, Y0;          \
	VMULPD      inv, Y1, Y1;          \
	VROUNDPD    $1, Y0, Y2;           \
	VROUNDPD    $1, Y1, Y3;           \
	VSUBPD      Y2, Y0, Y0;           \
	VSUBPD      Y3, Y1, Y1;           \
	VMULPD      Y13, Y0, Y0;          \
	VMULPD      Y13, Y1, Y1;          \
	VPOR        Y12, Y4, Y4;          \
	VPOR        Y12, Y5, Y5;          \
	VSUBPD      Y12, Y4, Y4;          \
	VSUBPD      Y12, Y5, Y5;          \
	VSUBPD      Y0, Y4, Y4;           \
	VSUBPD      Y1, Y5, Y5;           \
	VADDPD      Y11, Y2, Y6;          \
	VADDPD      Y11, Y3, Y7;          \
	VBLENDVPD   Y4, Y6, Y2, Y2;       \
	VBLENDVPD   Y5, Y7, Y3, Y3;       \
	VCVTTPD2DQY Y2, X2;               \
	VCVTTPD2DQY Y3, X3;               \
	VPACKSSDW   X3, X2, X2;           \
	VPMINSW     X10, X2, X2;          \
	VPMAXSW     X9, X2, X2;           \
	VPACKSSWB   X2, X2, X2;           \
	VMOVQ       X2, -16(q)(R13*1)

// func reluVec(dst, x []float32) int
TEXT ·reluVec(SB), NOSPLIT, $0-56
	MOVQ $0, ret+48(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ dst_len+8(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VXORPS Y15, Y15, Y15
	JMP  test

loop:
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS  $0x11, Y15, Y0, Y1 // x < 0 (LT_OQ: false for NaN and -0)
	VANDNPS Y0, Y1, Y0         // x &^ mask
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+48(FP)

none:
	RET

// func reluGradVec(dst, dy, y []float32) int
TEXT ·reluGradVec(SB), NOSPLIT, $0-80
	MOVQ $0, ret+72(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ dy_base+24(FP), SI
	MOVQ dy_len+32(FP), CX
	MOVQ y_base+48(FP), DX
	CMPQ dst_len+8(FP), CX
	JLT  none
	CMPQ y_len+56(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VXORPS Y15, Y15, Y15
	JMP  test

loop:
	VMOVUPS (DX)(AX*4), Y1
	VCMPPS  $0x1e, Y15, Y1, Y1 // y > 0 (GT_OQ: false for NaN)
	VANDPS  (SI)(AX*4), Y1, Y0 // dy where y > 0, else +0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+72(FP)

none:
	RET

// func addVec(dst, src []float32) int
TEXT ·addVec(SB), NOSPLIT, $0-56
	MOVQ $0, ret+48(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	CMPQ dst_len+8(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	JMP  test

loop:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0 // dst + src
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+48(FP)

none:
	RET

// func addRowVec(dst, v []float32) int
TEXT ·addRowVec(SB), NOSPLIT, $0-56
	MOVQ $0, ret+48(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (DI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (DI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0 // row + v
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     col
	MOVQ    R9, DI
	JMP     row

done:
	VZEROUPPER
	MOVQ BX, ret+48(FP)

none:
	RET

// func sumRowsVec(dst, x []float32) int
//
// Chunk by chunk, not row by row: a column's sum starts from +0 in a
// register and is added to dst once, after the last row.
TEXT ·sumRowsVec(SB), NOSPLIT, $0-56
	MOVQ $0, ret+48(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX
	XORQ AX, AX

chunk:
	VXORPS Y0, Y0, Y0
	MOVQ   SI, DX

row:
	LEAQ   (DX)(CX*1), R9
	CMPQ   R9, R8
	JHI    store
	VADDPS (DX)(AX*4), Y0, Y0 // sum + x
	MOVQ   R9, DX
	JMP    row

store:
	VMOVUPS (DI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1 // dst + sum
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     chunk
	VZEROUPPER
	MOVQ    BX, ret+48(FP)

none:
	RET

// func bnColSumVec(sum []float64, x []float32) int
TEXT ·bnColSumVec(SB), NOSPLIT, $0-56
	MOVQ $0, ret+48(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ sum_base+0(FP), DI
	MOVQ sum_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VMOVUPD   (DI)(AX*8), Y2
	VMOVUPD   32(DI)(AX*8), Y3
	VADDPD    Y0, Y2, Y2 // sum + x
	VADDPD    Y1, Y3, Y3
	VMOVUPD   Y2, (DI)(AX*8)
	VMOVUPD   Y3, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       col
	MOVQ      R9, SI
	JMP       row

done:
	VZEROUPPER
	MOVQ BX, ret+48(FP)

none:
	RET

// func bnColSqDevVec(sq, mean []float64, x []float32) int
TEXT ·bnColSqDevVec(SB), NOSPLIT, $0-80
	MOVQ $0, ret+72(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ sq_base+0(FP), DI
	MOVQ sq_len+8(FP), CX
	MOVQ mean_base+24(FP), DX
	CMPQ mean_len+32(FP), CX
	JLT  none
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), R8
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VSUBPD    (DX)(AX*8), Y0, Y0 // d = x - mean
	VSUBPD    32(DX)(AX*8), Y1, Y1
	VMULPD    Y0, Y0, Y0         // d·d
	VMULPD    Y1, Y1, Y1
	VMOVUPD   (DI)(AX*8), Y2
	VMOVUPD   32(DI)(AX*8), Y3
	VADDPD    Y0, Y2, Y2         // sq + d·d
	VADDPD    Y1, Y3, Y3
	VMOVUPD   Y2, (DI)(AX*8)
	VMOVUPD   Y3, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       col
	MOVQ      R9, SI
	JMP       row

done:
	VZEROUPPER
	MOVQ BX, ret+72(FP)

none:
	RET

// func bnNormalizeVec(xhat, y, x []float32, mean, invStd []float64, gamma, beta []float32) int
TEXT ·bnNormalizeVec(SB), NOSPLIT, $0-176
	MOVQ $0, ret+168(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ mean_base+72(FP), R10
	MOVQ mean_len+80(FP), CX
	MOVQ invStd_base+96(FP), R11
	CMPQ invStd_len+104(FP), CX
	JLT  none
	MOVQ gamma_base+120(FP), R12
	CMPQ gamma_len+128(FP), CX
	JLT  none
	MOVQ beta_base+144(FP), R13
	CMPQ beta_len+152(FP), CX
	JLT  none
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), R8
	MOVQ xhat_base+0(FP), DI
	CMPQ xhat_len+8(FP), R8
	JLT  none
	MOVQ y_base+24(FP), DX
	CMPQ y_len+32(FP), R8
	JLT  none
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD   (SI)(AX*4), Y0
	VCVTPS2PD   16(SI)(AX*4), Y1
	VSUBPD      (R10)(AX*8), Y0, Y0 // x - mean
	VSUBPD      32(R10)(AX*8), Y1, Y1
	VMULPD      (R11)(AX*8), Y0, Y0 // ·invStd
	VMULPD      32(R11)(AX*8), Y1, Y1
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VINSERTF128 $1, X1, Y0, Y0      // xhat, 8 lanes
	VMOVUPS     Y0, (DI)(AX*4)
	VMOVUPS     (R12)(AX*4), Y2
	VMULPS      Y0, Y2, Y2          // γ·xhat
	VADDPS      (R13)(AX*4), Y2, Y2 // + β
	VMOVUPS     Y2, (DX)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         col
	ADDQ        CX, DI
	ADDQ        CX, DX
	MOVQ        R9, SI
	JMP         row

done:
	VZEROUPPER
	MOVQ BX, ret+168(FP)

none:
	RET

// func bnNormalizeRunningVec(y, x []float32, mean, invStd, gamma, beta []float64) int
TEXT ·bnNormalizeRunningVec(SB), NOSPLIT, $0-152
	MOVQ $0, ret+144(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ mean_base+48(FP), R10
	MOVQ mean_len+56(FP), CX
	MOVQ invStd_base+72(FP), R11
	CMPQ invStd_len+80(FP), CX
	JLT  none
	MOVQ gamma_base+96(FP), R12
	CMPQ gamma_len+104(FP), CX
	JLT  none
	MOVQ beta_base+120(FP), R13
	CMPQ beta_len+128(FP), CX
	JLT  none
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ y_base+0(FP), DI
	CMPQ y_len+8(FP), R8
	JLT  none
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD   (SI)(AX*4), Y0
	VCVTPS2PD   16(SI)(AX*4), Y1
	VSUBPD      (R10)(AX*8), Y0, Y0 // x - mean
	VSUBPD      32(R10)(AX*8), Y1, Y1
	VMULPD      (R11)(AX*8), Y0, Y0 // xh = ·invStd
	VMULPD      32(R11)(AX*8), Y1, Y1
	VMOVUPD     (R12)(AX*8), Y2
	VMOVUPD     32(R12)(AX*8), Y3
	VMULPD      Y0, Y2, Y2          // γ·xh
	VMULPD      Y1, Y3, Y3
	VADDPD      (R13)(AX*8), Y2, Y2 // + β
	VADDPD      32(R13)(AX*8), Y3, Y3
	VCVTPD2PSY  Y2, X2
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVUPS     Y2, (DI)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         col
	ADDQ        CX, DI
	MOVQ        R9, SI
	JMP         row

done:
	VZEROUPPER
	MOVQ BX, ret+144(FP)

none:
	RET

// func bnParamGradsVec(dgamma, dbeta []float64, dy, xhat []float32) int
TEXT ·bnParamGradsVec(SB), NOSPLIT, $0-104
	MOVQ $0, ret+96(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dgamma_base+0(FP), DI
	MOVQ dgamma_len+8(FP), CX
	MOVQ dbeta_base+24(FP), DX
	CMPQ dbeta_len+32(FP), CX
	JLT  none
	MOVQ dy_base+48(FP), SI
	MOVQ dy_len+56(FP), R8
	MOVQ xhat_base+72(FP), R11
	CMPQ xhat_len+80(FP), R8
	JLT  none
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD (SI)(AX*4), Y0   // dy
	VCVTPS2PD 16(SI)(AX*4), Y1
	VCVTPS2PD (R11)(AX*4), Y2  // xhat
	VCVTPS2PD 16(R11)(AX*4), Y3
	VMULPD    Y2, Y0, Y2       // dy·xhat
	VMULPD    Y3, Y1, Y3
	VMOVUPD   (DI)(AX*8), Y4
	VMOVUPD   32(DI)(AX*8), Y5
	VADDPD    Y2, Y4, Y4       // dgamma + dy·xhat
	VADDPD    Y3, Y5, Y5
	VMOVUPD   Y4, (DI)(AX*8)
	VMOVUPD   Y5, 32(DI)(AX*8)
	VMOVUPD   (DX)(AX*8), Y6
	VMOVUPD   32(DX)(AX*8), Y7
	VADDPD    Y0, Y6, Y6       // dbeta + dy
	VADDPD    Y1, Y7, Y7
	VMOVUPD   Y6, (DX)(AX*8)
	VMOVUPD   Y7, 32(DX)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       col
	ADDQ      CX, R11
	MOVQ      R9, SI
	JMP       row

done:
	VZEROUPPER
	MOVQ BX, ret+96(FP)

none:
	RET

// func bnInputGradVec(dx, dy, xhat []float32, scale, dbeta, dgamma []float64, m float64) int
TEXT ·bnInputGradVec(SB), NOSPLIT, $0-160
	MOVQ $0, ret+152(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ scale_base+72(FP), R10
	MOVQ scale_len+80(FP), CX
	MOVQ dbeta_base+96(FP), R12
	CMPQ dbeta_len+104(FP), CX
	JLT  none
	MOVQ dgamma_base+120(FP), R13
	CMPQ dgamma_len+128(FP), CX
	JLT  none
	MOVQ dy_base+24(FP), SI
	MOVQ dy_len+32(FP), R8
	MOVQ dx_base+0(FP), DI
	CMPQ dx_len+8(FP), R8
	JLT  none
	MOVQ xhat_base+48(FP), R11
	CMPQ xhat_len+56(FP), R8
	JLT  none
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   none
	VBROADCASTSD m+144(FP), Y15
	LEAQ (SI)(R8*4), R8
	SHLQ $2, CX

row:
	LEAQ (SI)(CX*1), R9
	CMPQ R9, R8
	JHI  done
	XORQ AX, AX

col:
	VCVTPS2PD   (SI)(AX*4), Y0
	VCVTPS2PD   16(SI)(AX*4), Y1
	VMULPD      Y0, Y15, Y0         // m·dy
	VMULPD      Y1, Y15, Y1
	VSUBPD      (R12)(AX*8), Y0, Y0 // - dbeta
	VSUBPD      32(R12)(AX*8), Y1, Y1
	VCVTPS2PD   (R11)(AX*4), Y2
	VCVTPS2PD   16(R11)(AX*4), Y3
	VMULPD      (R13)(AX*8), Y2, Y2 // xhat·dgamma
	VMULPD      32(R13)(AX*8), Y3, Y3
	VSUBPD      Y2, Y0, Y0          // (m·dy - dbeta) - xhat·dgamma
	VSUBPD      Y3, Y1, Y1
	VMOVUPD     (R10)(AX*8), Y2
	VMOVUPD     32(R10)(AX*8), Y3
	VMULPD      Y0, Y2, Y2          // scale·(…)
	VMULPD      Y1, Y3, Y3
	VCVTPD2PSY  Y2, X2
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVUPS     Y2, (DI)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         col
	ADDQ        CX, DI
	ADDQ        CX, R11
	MOVQ        R9, SI
	JMP         row

done:
	VZEROUPPER
	MOVQ BX, ret+152(FP)

none:
	RET

// func packTransposeVec(dst, src []float32, rows, cols int) int
//
// Data movement only: every whole 8×8 block of src, in row-block order,
// goes through eight YMM registers and lands transposed in dst. The low
// halves hold columns 0-3 and the high halves columns 4-7 of rows r and
// r+4 (VINSERTF128 crosses the 128-bit lanes at the load), so VUNPCKLPS/
// VUNPCKHPS and VSHUFPS finish the transpose within lanes. Register use:
// SI = source block, DX = its row 4, DI = destination block, AX = its row 4,
// R8/R13 = destination row stride ×1/×3 in bytes, R9/R12 = source row
// stride ×1/×3, R10 = block rows, R11 = block columns, CX = row, BX = column.
TEXT ·packTransposeVec(SB), NOSPLIT, $0-72
	MOVQ $0, ret+64(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9
	MOVQ R8, AX
	IMULQ R9, AX
	CMPQ dst_len+8(FP), AX
	JLT  none
	CMPQ src_len+32(FP), AX
	JLT  none
	MOVQ R8, R10
	ANDQ $-8, R10
	JZ   none
	MOVQ R9, R11
	ANDQ $-8, R11
	JZ   none
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	LEAQ (R8)(R8*2), R13
	XORQ CX, CX

rowblk:
	MOVQ  CX, SI
	IMULQ R9, SI
	ADDQ  src_base+24(FP), SI
	MOVQ  dst_base+0(FP), DI
	LEAQ  (DI)(CX*4), DI
	XORQ  BX, BX

colblk:
	LEAQ        (SI)(R9*4), DX
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (DX), Y0, Y0          // a0-3 | e0-3
	VMOVUPS     (SI)(R9*1), X1
	VINSERTF128 $1, (DX)(R9*1), Y1, Y1    // b0-3 | f0-3
	VMOVUPS     (SI)(R9*2), X2
	VINSERTF128 $1, (DX)(R9*2), Y2, Y2    // c0-3 | g0-3
	VMOVUPS     (SI)(R12*1), X3
	VINSERTF128 $1, (DX)(R12*1), Y3, Y3   // d0-3 | h0-3
	VMOVUPS     16(SI), X4
	VINSERTF128 $1, 16(DX), Y4, Y4        // a4-7 | e4-7
	VMOVUPS     16(SI)(R9*1), X5
	VINSERTF128 $1, 16(DX)(R9*1), Y5, Y5
	VMOVUPS     16(SI)(R9*2), X6
	VINSERTF128 $1, 16(DX)(R9*2), Y6, Y6
	VMOVUPS     16(SI)(R12*1), X7
	VINSERTF128 $1, 16(DX)(R12*1), Y7, Y7
	VUNPCKLPS   Y1, Y0, Y8                // a0 b0 a1 b1 | e0 f0 e1 f1
	VUNPCKHPS   Y1, Y0, Y9                // a2 b2 a3 b3 | e2 f2 e3 f3
	VUNPCKLPS   Y3, Y2, Y10               // c0 d0 c1 d1 | g0 h0 g1 h1
	VUNPCKHPS   Y3, Y2, Y11               // c2 d2 c3 d3 | g2 h2 g3 h3
	VUNPCKLPS   Y5, Y4, Y12
	VUNPCKHPS   Y5, Y4, Y13
	VUNPCKLPS   Y7, Y6, Y14
	VUNPCKHPS   Y7, Y6, Y15
	VSHUFPS     $0x44, Y10, Y8, Y0        // column 0: a0 b0 c0 d0 | e0 f0 g0 h0
	VSHUFPS     $0xEE, Y10, Y8, Y1        // column 1
	VSHUFPS     $0x44, Y11, Y9, Y2        // column 2
	VSHUFPS     $0xEE, Y11, Y9, Y3        // column 3
	VSHUFPS     $0x44, Y14, Y12, Y4       // column 4
	VSHUFPS     $0xEE, Y14, Y12, Y5
	VSHUFPS     $0x44, Y15, Y13, Y6
	VSHUFPS     $0xEE, Y15, Y13, Y7
	LEAQ        (DI)(R8*4), AX
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, (DI)(R8*1)
	VMOVUPS     Y2, (DI)(R8*2)
	VMOVUPS     Y3, (DI)(R13*1)
	VMOVUPS     Y4, (AX)
	VMOVUPS     Y5, (AX)(R8*1)
	VMOVUPS     Y6, (AX)(R8*2)
	VMOVUPS     Y7, (AX)(R13*1)
	ADDQ        $32, SI
	LEAQ        (DI)(R8*8), DI
	ADDQ        $8, BX
	CMPQ        BX, R11
	JLT         colblk
	ADDQ        $8, CX
	CMPQ        CX, R10
	JLT         rowblk
	VZEROUPPER
	MOVQ        R10, ret+64(FP)

none:
	RET

// func scaleFromVec(dst, x []float32, a float32) int
TEXT ·scaleFromVec(SB), NOSPLIT, $0-64
	MOVQ $0, ret+56(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ dst_len+8(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VBROADCASTSS a+48(FP), Y15
	JMP  test

loop:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  Y15, Y0, Y0 // x·a
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)

none:
	RET

// func axpyVec(dst, x []float32, a float32) int
TEXT ·axpyVec(SB), NOSPLIT, $0-64
	MOVQ $0, ret+56(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ dst_len+8(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VBROADCASTSS a+48(FP), Y15
	JMP  test

loop:
	VMULPS  (SI)(AX*4), Y15, Y0 // a·x
	VMOVUPS (DI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1          // dst + a·x
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)

none:
	RET

// func isFiniteVec(x []float32) int
//
// x - x is +0 for a finite x and NaN otherwise; the bits of every such
// difference are ORed together, and the chunks are finite exactly when the
// result is all zero. Otherwise it returns 0 and the reference decides.
TEXT ·isFiniteVec(SB), NOSPLIT, $0-32
	MOVQ $0, ret+24(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $-8, CX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	JMP  test

loop:
	VMOVUPS (SI)(AX*4), Y1
	VSUBPS  Y1, Y1, Y1 // x - x
	VORPS   Y1, Y0, Y0
	ADDQ    $8, AX

test:
	CMPQ  AX, CX
	JLT   loop
	VPTEST Y0, Y0
	VZEROUPPER
	JNE   none
	MOVQ  CX, ret+24(FP)

none:
	RET

// The SGD steps keep Go's operand order: lr·g and mom·v with the scalar
// first, w + Δ with the weight first, and -lr as lr with its sign bit
// flipped, as Go negates.

// func sgdPlainVec(w, g []float32, lr float32) int
TEXT ·sgdPlainVec(SB), NOSPLIT, $0-64
	MOVQ $0, ret+56(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	CMPQ g_len+32(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VBROADCASTSS lr+48(FP), Y15
	VPCMPEQD     Y14, Y14, Y14
	VPSLLD       $31, Y14, Y14
	VXORPS       Y14, Y15, Y15 // -lr
	VXORPS       Y14, Y14, Y14 // +0
	JMP          test

loop:
	VMULPS  (SI)(AX*4), Y15, Y0 // -lr·g
	VMOVUPS (DI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1          // w + -lr·g
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y14, (SI)(AX*4)     // g = 0
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)

none:
	RET

// func sgdMomentumVec(w, g, v []float32, lr, mom float32) int
TEXT ·sgdMomentumVec(SB), NOSPLIT, $0-88
	MOVQ $0, ret+80(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	CMPQ g_len+32(FP), CX
	JLT  none
	MOVQ v_base+48(FP), DX
	CMPQ v_len+56(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VBROADCASTSS lr+72(FP), Y15
	VBROADCASTSS mom+76(FP), Y13
	VPCMPEQD     Y14, Y14, Y14
	VPSLLD       $31, Y14, Y14
	VXORPS       Y14, Y15, Y15 // -lr
	VXORPS       Y14, Y14, Y14 // +0
	JMP          test

loop:
	VMULPS  (DX)(AX*4), Y13, Y0 // mom·v
	VADDPS  (SI)(AX*4), Y0, Y0  // v = mom·v + g
	VMOVUPS Y0, (DX)(AX*4)
	VMULPS  Y0, Y15, Y0         // -lr·v
	VMOVUPS (DI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1          // w + -lr·v
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y14, (SI)(AX*4)     // g = 0
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+80(FP)

none:
	RET

// func sgdGeneralVec(w, g, v, a []float32, lr, mom, wd, mu float32, decay, heavy, nesterov bool) int
//
// heavy is mom > 0. The mode branches test flags held in registers (R10
// decay, R8 the anchor's base, R11 heavy, R12 nesterov) and go the same way
// for every chunk.
TEXT ·sgdGeneralVec(SB), NOSPLIT, $0-128
	MOVQ $0, ret+120(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	CMPQ g_len+32(FP), CX
	JLT  none
	MOVQ v_base+48(FP), DX
	CMPQ v_len+56(FP), CX
	JLT  none
	MOVQ a_base+72(FP), R8
	TESTQ R8, R8
	JZ   flags
	CMPQ a_len+80(FP), CX
	JLT  none

flags:
	MOVBQZX decay+112(FP), R10
	MOVBQZX heavy+113(FP), R11
	MOVBQZX nesterov+114(FP), R12
	ANDQ    $-8, CX
	XORQ    AX, AX
	VBROADCASTSS lr+96(FP), Y12
	VBROADCASTSS mom+100(FP), Y13
	VBROADCASTSS wd+104(FP), Y14
	VBROADCASTSS mu+108(FP), Y15
	VPCMPEQD     Y10, Y10, Y10
	VPSLLD       $31, Y10, Y10
	VXORPS       Y10, Y12, Y11 // -lr
	VXORPS       Y10, Y10, Y10 // +0
	JMP          test

loop:
	VMOVUPS (SI)(AX*4), Y0 // gj
	VMOVUPS (DI)(AX*4), Y1 // w
	TESTQ   R10, R10
	JZ      prox
	VMULPS  Y1, Y14, Y2    // wd·w
	VADDPS  Y2, Y0, Y0     // gj + wd·w

prox:
	TESTQ  R8, R8
	JZ     mode
	VSUBPS (R8)(AX*4), Y1, Y2 // w - a
	VMULPS Y2, Y15, Y2        // mu·(w - a)
	VADDPS Y2, Y0, Y0         // gj + mu·(w - a)

mode:
	TESTQ   R11, R11
	JZ      plain
	VMULPS  (DX)(AX*4), Y13, Y3 // mom·v
	VADDPS  Y0, Y3, Y3          // v = mom·v + gj
	VMOVUPS Y3, (DX)(AX*4)
	TESTQ   R12, R12
	JZ      heavyball
	VMULPS  Y3, Y13, Y4         // mom·v
	VADDPS  Y4, Y0, Y4          // gj + mom·v
	VMULPS  Y4, Y12, Y4         // lr·(gj + mom·v)
	VSUBPS  Y4, Y1, Y1          // w - lr·(gj + mom·v)
	JMP     store

heavyball:
	VMULPS Y3, Y11, Y4 // -lr·v
	VADDPS Y4, Y1, Y1  // w + -lr·v
	JMP    store

plain:
	VMULPS Y0, Y11, Y4 // -lr·gj
	VADDPS Y4, Y1, Y1  // w + -lr·gj

store:
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y10, (SI)(AX*4) // g = 0
	ADDQ    $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+120(FP)

none:
	RET

// The int8 codec's kernels. deltaMaxAbsVec takes the largest magnitude on
// the bits, as its reference does, and reduces its eight lanes at the end:
// an unsigned maximum does not depend on the order it is taken in.

// func deltaMaxAbsVec(delta, x, ref []float32) (n int, maxBits uint32)
TEXT ·deltaMaxAbsVec(SB), NOSPLIT, $0-84
	MOVQ $0, n+72(FP)
	MOVL $0, maxBits+80(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ delta_base+0(FP), DI
	MOVQ delta_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ ref_base+48(FP), DX
	CMPQ x_len+32(FP), CX
	JLT  none
	CMPQ ref_len+56(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VPXOR        Y0, Y0, Y0   // running maximum of the magnitude bits, NaNs as 0
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y15 // 0x7fffffff: all but the sign
	MOVL         $0x7f7fffff, R10
	VMOVD        R10, X14
	VPBROADCASTD X14, Y14     // MaxFloat32
	MOVL         $0x7f800000, R10
	VMOVD        R10, X13
	VPBROADCASTD X13, Y13     // +Inf
	JMP          test

loop:
	VMOVUPS  (SI)(AX*4), Y1
	VSUBPS   (DX)(AX*4), Y1, Y1 // x - ref
	VPAND    Y15, Y1, Y2        // magnitude bits
	VPCMPGTD Y14, Y2, Y3        // above MaxFloat32: not finite
	VPANDN   Y1, Y3, Y1         // delta, +0 where not finite
	VMOVUPS  Y1, (DI)(AX*4)
	VPCMPGTD Y13, Y2, Y3        // above +Inf: NaN
	VPANDN   Y2, Y3, Y2
	VPMAXUD  Y2, Y0, Y0
	ADDQ     $8, AX

test:
	CMPQ         AX, CX
	JLT          loop
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, R10
	MOVL         R10, maxBits+80(FP)
	VZEROUPPER
	MOVQ         CX, n+72(FP)

none:
	RET

// func dequantizeInt8Vec(dst, ref []float32, q []byte, scale float32) int
//
// The body adds in the reference's written order, ref first, so where a NaN
// ref meets a NaN product the lane keeps ref's NaN, quieted. The compiled
// reference may keep either, as its operands fall; the fold refuses both.
TEXT ·dequantizeInt8Vec(SB), NOSPLIT, $0-88
	MOVQ $0, ret+80(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ dst_base+0(FP), DI
	MOVQ ref_base+24(FP), DX
	MOVQ q_base+48(FP), SI
	MOVQ q_len+56(FP), CX
	CMPQ dst_len+8(FP), CX
	JLT  none
	CMPQ ref_len+32(FP), CX
	JLT  none
	ANDQ $-8, CX
	XORQ AX, AX
	VBROADCASTSS scale+72(FP), Y15
	JMP  test

loop:
	VPMOVSXBD (SI)(AX*1), Y0
	VCVTDQ2PS Y0, Y0            // float32(int8(q)), exact
	VMULPS    Y0, Y15, Y0       // scale·q
	VMOVUPS   (DX)(AX*4), Y1
	VADDPS    Y0, Y1, Y1        // ref + scale·q
	VMOVUPS   Y1, (DI)(AX*4)
	ADDQ      $8, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+80(FP)

none:
	RET

// func quantizeInt8PairVec(qa, qb *[QuantBlock]byte, da, db *[QuantBlock]float32, inva, invb float64, sa, sb *uint64) int
//
// Both chains step eight times per group, and the group drawn two groups
// before is quantized behind them from the states the frame keeps: the
// quantizing needs no result of the steps beside it, so it runs in their
// latency. R13 is the first lane of the group being drawn.
TEXT ·quantizeInt8PairVec(SB), $1024-72
	MOVQ $0, ret+64(FP)
	CMPB ·elemAVX2(SB), $0
	JEQ  none
	MOVQ qa+0(FP), R9
	MOVQ qb+8(FP), R10
	MOVQ da+16(FP), R11
	MOVQ db+24(FP), R12
	VBROADCASTSD inva+32(FP), Y15
	VBROADCASTSD invb+40(FP), Y14
	MOVQ         $0x41f0000000000000, CX
	VMOVQ        CX, X13
	VPBROADCASTQ X13, Y13     // 2^32
	MOVQ         $0x4330000000000000, CX
	VMOVQ        CX, X12
	VPBROADCASTQ X12, Y12     // 2^52
	MOVQ         $0x3ff0000000000000, CX
	VMOVQ        CX, X11
	VPBROADCASTQ X11, Y11     // 1
	MOVL         $127, CX
	VMOVD        CX, X10
	VPBROADCASTW X10, X10     // 127 as int16s
	MOVL         $-127, CX
	VMOVD        CX, X9
	VPBROADCASTW X9, X9       // -127 as int16s
	MOVQ         sa+48(FP), AX
	MOVQ         (AX), AX
	MOVQ         sb+56(FP), BX
	MOVQ         (BX), BX
	MOVQ         $0x9e3779b97f4a7c15, SI
	MOVQ         $0xbf58476d1ce4e5b9, DI
	MOVQ         $0x94d049bb133111eb, R8
	XORQ         R13, R13
	DRAWS8
	ADDQ         $8, R13
	DRAWS8

loop:
	ADDQ   $8, R13
	DRAWS8
	QUANT8(-128, Y15, R11, R9)
	QUANT8(384, Y14, R12, R10)
	CMPQ   R13, $56
	JLT    loop
	ADDQ   $8, R13
	QUANT8(-128, Y15, R11, R9)
	QUANT8(384, Y14, R12, R10)
	ADDQ   $8, R13
	QUANT8(-128, Y15, R11, R9)
	QUANT8(384, Y14, R12, R10)
	MOVQ   sa+48(FP), CX
	MOVQ   AX, (CX)
	MOVQ   sb+56(FP), DX
	MOVQ   BX, (DX)
	VZEROUPPER
	MOVQ   $64, ret+64(FP)

none:
	RET

// func centerDistancesVec(dist []float64, x []float32, ct []float64, dim, kp int) int
//
// Two rows at a time, then the last one alone; within a row, eight lanes
// (two accumulators) at a time while eight are left, then four. A lane's sum
// starts from +0 in a register and takes the row's dimensions in order, each
// x widened and broadcast to every lane; two rows share each load of the
// centers and keep four chains of additions in flight. The wrapper sizes the
// operands: rows·dim values of x, rows·kp distances and dim·kp centers.
// Register use: SI = row of x, DI = its distances, R14 = the second row's
// distances, DX = ct, R8 = dim, CX = a ct row (kp float64s) in bytes, R9 =
// end of x, R13 = a row of x in bytes, BX = lane offset in bytes, R10 = ct
// at the lanes' dimension, R12 = x at it, R11 = dimensions left, AX = rows
// done.
TEXT ·centerDistancesVec(SB), NOSPLIT, $0-96
	MOVQ  $0, ret+88(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  kp+80(FP), CX
	TESTQ $3, CX
	JNZ   none
	TESTQ CX, CX
	JZ    none
	MOVQ  dim+72(FP), R8
	TESTQ R8, R8
	JLE   none
	MOVQ  dist_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), R9
	LEAQ  (SI)(R9*4), R9
	MOVQ  ct_base+48(FP), DX
	SHLQ  $3, CX
	MOVQ  R8, R13
	SHLQ  $2, R13
	XORQ  AX, AX

pair:
	LEAQ (SI)(R13*2), R12
	CMPQ R12, R9
	JHI  row
	LEAQ (DI)(CX*1), R14
	XORQ BX, BX

pair8:
	LEAQ   64(BX), R10
	CMPQ   R10, CX
	JHI    pair4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (DX)(BX*1), R10
	MOVQ   SI, R12
	MOVQ   R8, R11

pairdim8:
	VBROADCASTSS (R12), X4
	VBROADCASTSS (R12)(R13*1), X5
	VCVTPS2PD    X4, Y4
	VCVTPS2PD    X5, Y5
	VMOVUPD      (R10), Y6
	VMOVUPD      32(R10), Y7
	VSUBPD       Y6, Y4, Y8      // e = x - c
	VSUBPD       Y7, Y4, Y9
	VSUBPD       Y6, Y5, Y10
	VSUBPD       Y7, Y5, Y11
	VMULPD       Y8, Y8, Y8      // e·e
	VMULPD       Y9, Y9, Y9
	VMULPD       Y10, Y10, Y10
	VMULPD       Y11, Y11, Y11
	VADDPD       Y8, Y0, Y0      // d + e·e
	VADDPD       Y9, Y1, Y1
	VADDPD       Y10, Y2, Y2
	VADDPD       Y11, Y3, Y3
	ADDQ         $4, R12
	ADDQ         CX, R10
	DECQ         R11
	JNZ          pairdim8
	VMOVUPD      Y0, (DI)(BX*1)
	VMOVUPD      Y1, 32(DI)(BX*1)
	VMOVUPD      Y2, (R14)(BX*1)
	VMOVUPD      Y3, 32(R14)(BX*1)
	ADDQ         $64, BX
	JMP          pair8

pair4:
	CMPQ   BX, CX
	JAE    pairnext
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	LEAQ   (DX)(BX*1), R10
	MOVQ   SI, R12
	MOVQ   R8, R11

pairdim4:
	VBROADCASTSS (R12), X4
	VBROADCASTSS (R12)(R13*1), X5
	VCVTPS2PD    X4, Y4
	VCVTPS2PD    X5, Y5
	VMOVUPD      (R10), Y6
	VSUBPD       Y6, Y4, Y8
	VSUBPD       Y6, Y5, Y10
	VMULPD       Y8, Y8, Y8
	VMULPD       Y10, Y10, Y10
	VADDPD       Y8, Y0, Y0
	VADDPD       Y10, Y2, Y2
	ADDQ         $4, R12
	ADDQ         CX, R10
	DECQ         R11
	JNZ          pairdim4
	VMOVUPD      Y0, (DI)(BX*1)
	VMOVUPD      Y2, (R14)(BX*1)

pairnext:
	LEAQ (SI)(R13*2), SI
	LEAQ (R14)(CX*1), DI
	ADDQ $2, AX
	JMP  pair

row:
	LEAQ (SI)(R13*1), R12
	CMPQ R12, R9
	JHI  done
	XORQ BX, BX

lanes8:
	LEAQ   64(BX), R10
	CMPQ   R10, CX
	JHI    lanes4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ   (DX)(BX*1), R10
	MOVQ   SI, R12
	MOVQ   R8, R11

dim8:
	VBROADCASTSS (R12), X4
	VCVTPS2PD    X4, Y4
	VSUBPD       (R10), Y4, Y2
	VSUBPD       32(R10), Y4, Y3
	VMULPD       Y2, Y2, Y2
	VMULPD       Y3, Y3, Y3
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y1, Y1
	ADDQ         $4, R12
	ADDQ         CX, R10
	DECQ         R11
	JNZ          dim8
	VMOVUPD      Y0, (DI)(BX*1)
	VMOVUPD      Y1, 32(DI)(BX*1)
	ADDQ         $64, BX
	JMP          lanes8

lanes4:
	CMPQ   BX, CX
	JAE    next
	VXORPD Y0, Y0, Y0
	LEAQ   (DX)(BX*1), R10
	MOVQ   SI, R12
	MOVQ   R8, R11

dim4:
	VBROADCASTSS (R12), X4
	VCVTPS2PD    X4, Y4
	VSUBPD       (R10), Y4, Y2
	VMULPD       Y2, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         $4, R12
	ADDQ         CX, R10
	DECQ         R11
	JNZ          dim4
	VMOVUPD      Y0, (DI)(BX*1)

next:
	ADDQ R13, SI
	ADDQ CX, DI
	INCQ AX
	JMP  row

done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)

none:
	RET

// func nearestLanesVec(dst []int32, dist []float64, kp int) int
//
// Row by row: a NaN in lane 0 answers 0 at once. Otherwise each lane's key is
// its bits with the sign cleared, which as signed integers order like the
// distances with every NaN above +Inf; the keys' minimum comes from a
// running VPCMPGTQ/VBLENDVPD over the 4-lane groups, then across the
// register, and the answer is the first lane whose key equals it: the groups
// are scanned last to first, each one holding the minimum overwriting the
// answer by a conditional move, since a branch on where the minimum lies is
// one the predictor cannot learn. Register use: SI = row of dist, DI = dst,
// CX = a row in bytes, R9 = rows, DX = row, BX = group offset in bytes, R10 =
// +Inf's bits, R11 = the answer, Y7 = the sign-clearing mask, Y0 = the
// minimum.
TEXT ·nearestLanesVec(SB), NOSPLIT, $0-64
	MOVQ  $0, ret+56(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  kp+48(FP), CX
	TESTQ $3, CX
	JNZ   none
	TESTQ CX, CX
	JZ    none
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), R9
	MOVQ  dist_base+24(FP), SI
	SHLQ  $3, CX
	MOVQ  $0x7fffffffffffffff, AX
	VMOVQ AX, X7
	VPBROADCASTQ X7, Y7
	MOVQ  $0x7ff0000000000000, R10
	XORQ  DX, DX

row:
	CMPQ DX, R9
	JAE  done
	MOVQ (SI), AX
	BTRQ $63, AX
	CMPQ AX, R10
	JHI  first      // lane 0 is NaN
	VPAND (SI), Y7, Y0
	MOVQ  $32, BX

group:
	CMPQ      BX, CX
	JAE       across
	VPAND     (SI)(BX*1), Y7, Y1
	VPCMPGTQ  Y1, Y0, Y2      // min > key
	VBLENDVPD Y2, Y1, Y0, Y0
	ADDQ      $32, BX
	JMP       group

across:
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ     X1, X0, X2
	VBLENDVPD    X2, X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPCMPGTQ     X1, X0, X2
	VBLENDVPD    X2, X1, X0, X0
	VPBROADCASTQ X0, Y0
	MOVQ         CX, BX

find:
	SUBQ      $32, BX
	MOVQ      BX, R12
	SHRQ      $3, R12
	VPAND     (SI)(BX*1), Y7, Y1
	VPCMPEQQ  Y0, Y1, Y1
	VMOVMSKPD Y1, AX
	BSFL      AX, AX         // ZF when no lane of the group holds it
	LEAQ      (R12)(AX*1), R12
	CMOVQNE   R12, R11
	TESTQ     BX, BX
	JNZ       find
	MOVL      R11, (DI)(DX*4)
	JMP       next

first:
	MOVL $0, (DI)(DX*4)

next:
	ADDQ CX, SI
	INCQ DX
	JMP  row

done:
	VZEROUPPER
	MOVQ R9, ret+56(FP)

none:
	RET

// func sumRowsByGroupVec(sum []float64, x []float32, group []int32, w, stride int) int
//
// Row by row, in order: the row's group, checked against the rows of sum
// (unsigned, so a negative one fails too), picks its row of sum; whole
// 4-lane chunks widen four x values with VCVTPS2PD and add them to sum's, and
// the last w&3 lanes go one at a time. Register use: SI = row of x, DI = sum,
// DX = group, R8 = w, R9 = rows, R10 = sum's rows, R11 = x's row stride in
// bytes, CX = row, AX = the group's row of sum, BX = lane.
TEXT ·sumRowsByGroupVec(SB), NOSPLIT, $0-96
	MOVQ  $0, ret+88(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  w+72(FP), R8
	TESTQ R8, R8
	JLE   none
	MOVQ  sum_base+0(FP), DI
	MOVQ  sum_len+8(FP), AX
	XORQ  DX, DX
	DIVQ  R8
	MOVQ  AX, R10
	MOVQ  x_base+24(FP), SI
	MOVQ  group_base+48(FP), DX
	MOVQ  group_len+56(FP), R9
	MOVQ  stride+80(FP), R11
	SHLQ  $2, R11
	XORQ  CX, CX

row:
	CMPQ    CX, R9
	JAE     done
	MOVLQSX (DX)(CX*4), AX
	CMPQ    AX, R10
	JAE     done
	IMULQ   R8, AX
	LEAQ    (DI)(AX*8), AX
	XORQ    BX, BX

chunk:
	LEAQ      4(BX), R12
	CMPQ      R12, R8
	JHI       lane
	VCVTPS2PD (SI)(BX*4), Y1
	VMOVUPD   (AX)(BX*8), Y0
	VADDPD    Y1, Y0, Y0        // sum + x
	VMOVUPD   Y0, (AX)(BX*8)
	MOVQ      R12, BX
	JMP       chunk

lane:
	CMPQ     BX, R8
	JAE      next
	VMOVSS    (SI)(BX*4), X1   // a load, so no chain through X1
	VCVTSS2SD X1, X1, X1
	VMOVSD    (AX)(BX*8), X0
	VADDSD    X1, X0, X0
	VMOVSD    X0, (AX)(BX*8)
	INCQ      BX
	JMP       lane

next:
	ADDQ R11, SI
	INCQ CX
	JMP  row

done:
	VZEROUPPER
	MOVQ CX, ret+88(FP)

none:
	RET
