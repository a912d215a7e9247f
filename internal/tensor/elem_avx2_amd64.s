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
