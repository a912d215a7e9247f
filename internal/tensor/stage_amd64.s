//go:build amd64 && !noasm

#include "textflag.h"

// The vector bodies of the conv staging kernels (stage.go). Every body
// returns at once with 0 unless elemAVX2 is set (the avx2 and avx512 tiers)
// and its counts are positive; otherwise it does every plane or window and
// returns their count. The wrappers have checked every slice against the
// counts, and a body stays inside the planes and rows they hold: the copy
// moves a plane row as 8-lane chunks and then one 4-, 2- and 1-lane move as
// the row length asks, writing only the row; the unpack reads whole 4-lane
// rows that begin or end at a window row, which lie inside the plane since a
// window has a row below its first two and one to the left of its third, and
// writes the nine values as 4, 4 and 1; the scatter reads and writes only
// the nine elements of a window. Moves do not touch a value's bits, NaN
// payloads included.

// func copyPlanesVec(dst, src []float32, ch, h, w, dstRow, dstPlane, srcRow, srcPlane int) int
//
// Copies ch planes of h rows of w values; row y of plane c starts at
// c·dstPlane + y·dstRow in dst and c·srcPlane + y·srcRow in src.
TEXT ·copyPlanesVec(SB), NOSPLIT, $0-112
	MOVQ  $0, ret+104(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  ch+48(FP), R8
	MOVQ  h+56(FP), R9
	MOVQ  w+64(FP), R10
	TESTQ R8, R8
	JLE   none
	TESTQ R9, R9
	JLE   none
	TESTQ R10, R10
	JLE   none
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	SHLQ  $2, R10                // row bytes
	MOVQ  dstRow+72(FP), R11
	SHLQ  $2, R11
	MOVQ  srcRow+88(FP), R13
	SHLQ  $2, R13

	// R12 and R14 step a row pointer from past a plane's last row to the
	// next plane's first: plane stride less h row strides, in bytes.
	MOVQ  R11, AX
	IMULQ R9, AX
	MOVQ  dstPlane+80(FP), R12
	SHLQ  $2, R12
	SUBQ  AX, R12
	MOVQ  R13, AX
	IMULQ R9, AX
	MOVQ  srcPlane+96(FP), R14
	SHLQ  $2, R14
	SUBQ  AX, R14
	MOVQ  R8, ret+104(FP)

plane:
	MOVQ R9, AX

row:
	XORQ BX, BX
	LEAQ -32(R10), CX

row8:
	CMPQ    BX, CX
	JGT     row4
	VMOVUPS (SI)(BX*1), Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     row8

row4:
	LEAQ    16(BX), CX
	CMPQ    CX, R10
	JGT     row2
	VMOVUPS (SI)(BX*1), X0
	VMOVUPS X0, (DI)(BX*1)
	MOVQ    CX, BX

row2:
	LEAQ  8(BX), CX
	CMPQ  CX, R10
	JGT   row1
	VMOVQ (SI)(BX*1), X0
	VMOVQ X0, (DI)(BX*1)
	MOVQ  CX, BX

row1:
	CMPQ   BX, R10
	JGE    rowdone
	VMOVSS (SI)(BX*1), X0
	VMOVSS X0, (DI)(BX*1)

rowdone:
	ADDQ R11, DI
	ADDQ R13, SI
	DECQ AX
	JNZ  row
	ADDQ R12, DI
	ADDQ R14, SI
	DECQ R8
	JNZ  plane
	VZEROUPPER
	RET

none:
	RET

// func unpack3x3Vec(cols, x []float32, ch, h, w, stride, oh, ow int) int
//
// Register use: DI = the row of cols being written, SI = the first window
// of the current window row, CX = the current window, DX = its channel
// being moved; R9 = plane row bytes, R10 = window step bytes, R11 = window
// row step bytes, R12 = plane bytes; AX, R13 and R14 count channels, window
// rows and windows.
TEXT ·unpack3x3Vec(SB), NOSPLIT, $0-104
	MOVQ  $0, ret+96(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  ch+48(FP), R8
	MOVQ  oh+80(FP), R13
	MOVQ  ow+88(FP), BX
	TESTQ R8, R8
	JLE   none
	TESTQ R13, R13
	JLE   none
	TESTQ BX, BX
	JLE   none
	IMULQ R13, BX
	MOVQ  BX, ret+96(FP)
	MOVQ  cols_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  w+64(FP), R9
	MOVQ  h+56(FP), R12
	IMULQ R9, R12
	SHLQ  $2, R12
	SHLQ  $2, R9
	MOVQ  stride+72(FP), R10
	SHLQ  $2, R10
	MOVQ  R9, R11
	IMULQ stride+72(FP), R11

winrow:
	MOVQ SI, CX
	MOVQ ow+88(FP), R14

win:
	MOVQ CX, DX
	MOVQ R8, AX

chan:
	VMOVUPS    (DX), X0             // r0a r0b r0c -
	VMOVUPS    (DX)(R9*1), X1       // r1a r1b r1c -
	VMOVUPS    -4(DX)(R9*2), X2     // - r2a r2b r2c
	VINSERTPS  $0x30, X1, X0, X0    // r0a r0b r0c r1a
	VSHUFPS    $0x99, X2, X1, X1    // r1b r1c r2a r2b
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	VEXTRACTPS $3, X2, 32(DI)
	ADDQ       $36, DI
	ADDQ   R12, DX
	DECQ   AX
	JNZ    chan
	ADDQ   R10, CX
	DECQ   R14
	JNZ    win
	ADDQ   R11, SI
	DECQ   R13
	JNZ    winrow

none:
	RET

// func scatterAdd3x3Vec(dx, cols []float32, ch, h, w, stride, oh, ow int) int
//
// unpack3x3Vec's loop with the moves turned round into adds, DI walking dx's
// windows and SI the rows of cols. A window row is a 2-lane add of the
// first two elements (8-byte loads, the upper lanes adding zeros to zeros)
// and a 1-lane add of the third, each the plane's value plus the row's
// (VADDPS X1, X0, X0 is X0 = X0 + X1). At stride 1 the next window's 8-byte
// load straddles this window's two stores; with a plane's other channels in
// between they have reached the cache by then, and at one channel the load
// waits for them.
TEXT ·scatterAdd3x3Vec(SB), NOSPLIT, $0-104
	MOVQ  $0, ret+96(FP)
	CMPB  ·elemAVX2(SB), $0
	JEQ   none
	MOVQ  ch+48(FP), R8
	MOVQ  oh+80(FP), R13
	MOVQ  ow+88(FP), BX
	TESTQ R8, R8
	JLE   none
	TESTQ R13, R13
	JLE   none
	TESTQ BX, BX
	JLE   none
	IMULQ R13, BX
	MOVQ  BX, ret+96(FP)
	MOVQ  dx_base+0(FP), DI
	MOVQ  cols_base+24(FP), SI
	MOVQ  w+64(FP), R9
	MOVQ  h+56(FP), R12
	IMULQ R9, R12
	SHLQ  $2, R12
	SHLQ  $2, R9
	MOVQ  stride+72(FP), R10
	SHLQ  $2, R10
	MOVQ  R9, R11
	IMULQ stride+72(FP), R11

winrow:
	MOVQ DI, CX
	MOVQ ow+88(FP), R14

win:
	MOVQ CX, DX
	MOVQ R8, AX

chan:
	VMOVQ  (DX), X0
	VMOVQ  (SI), X1
	VMOVSS 8(DX), X2
	VADDPS X1, X0, X0
	VADDSS 8(SI), X2, X2
	VMOVQ  X0, (DX)
	VMOVSS X2, 8(DX)
	VMOVQ  (DX)(R9*1), X3
	VMOVQ  12(SI), X4
	VMOVSS 8(DX)(R9*1), X5
	VADDPS X4, X3, X3
	VADDSS 20(SI), X5, X5
	VMOVQ  X3, (DX)(R9*1)
	VMOVSS X5, 8(DX)(R9*1)
	VMOVQ  (DX)(R9*2), X0
	VMOVQ  24(SI), X1
	VMOVSS 8(DX)(R9*2), X2
	VADDPS X1, X0, X0
	VADDSS 32(SI), X2, X2
	VMOVQ  X0, (DX)(R9*2)
	VMOVSS X2, 8(DX)(R9*2)
	ADDQ   $36, SI
	ADDQ   R12, DX
	DECQ   AX
	JNZ    chan
	ADDQ   R10, CX
	DECQ   R14
	JNZ    win
	ADDQ   R11, DI
	DECQ   R13
	JNZ    winrow

none:
	RET
