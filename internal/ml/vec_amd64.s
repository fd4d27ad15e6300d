#include "textflag.h"

// The row kernels in AVX (VEX-256), without FMA: every lane multiplies and
// then adds, with the same IEEE rounding as the scalar MULSD/ADDSD of the Go
// loops, in the same order, so results are bit-identical to them.

// DOT4 adds columns DI..DI+3 of the rows at r0..r3, times w's block in Y2,
// to the per-row accumulator lanes of acc. The four products are transposed
// so that each column becomes one vector, then added in column order: lane k
// of acc stays row k's left-to-right sum.
#define DOT4(r0, r1, r2, r3, acc) \
	VMOVUPD (r0)(DI*8), Y3; \
	VMULPD Y2, Y3, Y3; \
	VMOVUPD (r1)(DI*8), Y4; \
	VMULPD Y2, Y4, Y4; \
	VMOVUPD (r2)(DI*8), Y5; \
	VMULPD Y2, Y5, Y5; \
	VMOVUPD (r3)(DI*8), Y6; \
	VMULPD Y2, Y6, Y6; \
	VUNPCKLPD Y4, Y3, Y7; \
	VUNPCKHPD Y4, Y3, Y8; \
	VUNPCKLPD Y6, Y5, Y9; \
	VUNPCKHPD Y6, Y5, Y10; \
	VPERM2F128 $0x20, Y9, Y7, Y3; \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x31, Y9, Y7, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VADDPD Y3, acc, acc; \
	VADDPD Y4, acc, acc; \
	VADDPD Y5, acc, acc; \
	VADDPD Y6, acc, acc

// LOADROWS loads the eight row pointers from the array at DI and zeroes the
// column index DI.
#define LOADROWS \
	MOVQ 0(DI), AX; \
	MOVQ 8(DI), BX; \
	MOVQ 16(DI), CX; \
	MOVQ 24(DI), DX; \
	MOVQ 32(DI), R8; \
	MOVQ 40(DI), R9; \
	MOVQ 48(DI), R10; \
	MOVQ 56(DI), R11; \
	XORQ DI, DI

// func dot8AVX(w *float64, rows *[8]*float64, n int, d *[8]float64)
TEXT ·dot8AVX(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ n+16(FP), R12
	LOADROWS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

loop8:
	VMOVUPD (SI)(DI*8), Y2
	DOT4(AX, BX, CX, DX, Y0)
	DOT4(R8, R9, R10, R11, Y1)
	ADDQ $4, DI
	CMPQ DI, R12
	JLT  loop8

	MOVQ    d+24(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func dot4AVX(w *float64, rows *[8]*float64, n int, d *[8]float64)
TEXT ·dot4AVX(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ n+16(FP), R12
	LOADROWS
	VXORPD Y0, Y0, Y0

loop4:
	VMOVUPD (SI)(DI*8), Y2
	DOT4(AX, BX, CX, DX, Y0)
	ADDQ $4, DI
	CMPQ DI, R12
	JLT  loop4

	MOVQ    d+24(FP), DI
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// LOADCOLS loads columns DI..DI+3 of the rows at r0..r3 and transposes
// them through t0..t3, so that c0..c3 hold columns DI..DI+3, lane k from
// row rk.
#define LOADCOLS(r0, r1, r2, r3, c0, c1, c2, c3, t0, t1, t2, t3) \
	VMOVUPD (r0)(DI*8), c0; \
	VMOVUPD (r1)(DI*8), c1; \
	VMOVUPD (r2)(DI*8), c2; \
	VMOVUPD (r3)(DI*8), c3; \
	VUNPCKLPD c1, c0, t0; \
	VUNPCKHPD c1, c0, t1; \
	VUNPCKLPD c3, c2, t2; \
	VUNPCKHPD c3, c2, t3; \
	VPERM2F128 $0x20, t2, t0, c0; \
	VPERM2F128 $0x20, t3, t1, c1; \
	VPERM2F128 $0x31, t2, t0, c2; \
	VPERM2F128 $0x31, t3, t1, c3

// COL8 multiplies column DI+off of rows 0-3 (ca) and 4-7 (cb) by broadcasts
// of w[DI+off] and v[DI+off], and adds the products to the accumulators:
// Y0 and Y1 for w, Y12 and Y13 for v. Y2, Y11, Y14 and Y15 are scratch.
#define COL8(off, ca, cb) \
	VBROADCASTSD off(SI)(DI*8), Y2; \
	VBROADCASTSD off(R13)(DI*8), Y11; \
	VMULPD Y2, ca, Y14; \
	VADDPD Y14, Y0, Y0; \
	VMULPD Y2, cb, Y15; \
	VADDPD Y15, Y1, Y1; \
	VMULPD Y11, ca, Y14; \
	VADDPD Y14, Y12, Y12; \
	VMULPD Y11, cb, Y15; \
	VADDPD Y15, Y13, Y13

// COL4 is COL8 for rows 0-3 alone.
#define COL4(off, ca) \
	VBROADCASTSD off(SI)(DI*8), Y2; \
	VBROADCASTSD off(R13)(DI*8), Y11; \
	VMULPD Y2, ca, Y14; \
	VADDPD Y14, Y0, Y0; \
	VMULPD Y11, ca, Y15; \
	VADDPD Y15, Y12, Y12

// The two-weight kernels transpose each 4×4 block of rows once, before any
// multiply, and then multiply every column by both weights: the products
// are dot8AVX's (IEEE multiplication commutes), added in the same column
// order into per-row lanes.

// func dot8x2AVX(w, v *float64, rows *[8]*float64, n int, d, e *[8]float64)
TEXT ·dot8x2AVX(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ v+8(FP), R13
	MOVQ rows+16(FP), DI
	MOVQ n+24(FP), R12
	LOADROWS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13

loop8x2:
	LOADCOLS(AX, BX, CX, DX, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10)
	LOADCOLS(R8, R9, R10, R11, Y7, Y8, Y9, Y10, Y2, Y11, Y14, Y15)
	COL8(0, Y3, Y7)
	COL8(8, Y4, Y8)
	COL8(16, Y5, Y9)
	COL8(24, Y6, Y10)
	ADDQ $4, DI
	CMPQ DI, R12
	JLT  loop8x2

	MOVQ    d+32(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	MOVQ    e+40(FP), DI
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// func dot4x2AVX(w, v *float64, rows *[8]*float64, n int, d, e *[8]float64)
TEXT ·dot4x2AVX(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ v+8(FP), R13
	MOVQ rows+16(FP), DI
	MOVQ n+24(FP), R12
	LOADROWS
	VXORPD Y0, Y0, Y0
	VXORPD Y12, Y12, Y12

loop4x2:
	LOADCOLS(AX, BX, CX, DX, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10)
	COL4(0, Y3)
	COL4(8, Y4)
	COL4(16, Y5)
	COL4(24, Y6)
	ADDQ $4, DI
	CMPQ DI, R12
	JLT  loop4x2

	MOVQ    d+32(FP), DI
	VMOVUPD Y0, (DI)
	MOVQ    e+40(FP), DI
	VMOVUPD Y12, (DI)
	VZEROUPPER
	RET

// func axpy4AVX(a0, a1, a2, a3 float64, x *[4]*float64, y *float64, n int)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ x+32(FP), SI
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), CX
	MOVQ 24(SI), DX
	MOVQ y+40(FP), DI
	MOVQ n+48(FP), R8
	XORQ SI, SI

loop:
	VMOVUPD (DI)(SI*8), Y4
	VMULPD  (AX)(SI*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (BX)(SI*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (CX)(SI*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (DX)(SI*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, R8
	JLT     loop

	VZEROUPPER
	RET
