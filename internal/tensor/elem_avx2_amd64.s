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
