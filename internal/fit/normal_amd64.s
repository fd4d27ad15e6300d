#include "textflag.h"

// The normal-equation pass in AVX (VEX-256), four points per iteration,
// without FMA: every lane does the IEEE multiply, divide, add and subtract
// of the scalar MULSD, DIVSD, ADDSD and SUBSD of normalPassGo, in the same
// order, so results are bit-identical to it. A NaN result carries its
// first NaN source's payload, so each op also keeps the first source of the
// loop as a plain build compiles it: the left operand, except in the
// products, where the compiler puts x first in a*x and g1*x, r in g0*r and
// g1*r, and g0 in g1*g0. Of these, a*x and g0*r show in a payload (a NaN a
// with a NaN x; g0 = +Inf·-0 with a NaN y). FuzzNormalPass holds the
// payloads to nanPass, a model of that rule in this order: a -race or -fuzz
// build of the Go loop orders some operands differently.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8
DATA negone<>+0(SB)/8, $-1.0
GLOBL negone<>(SB), RODATA|NOPTR, $8

// ADDROWS adds the rows of the 4×4 block whose columns are v0..v3 (lane k
// of each is point k's term) to acc, in point order: lane j of acc stays
// sum j's left-to-right chain. It overwrites v0, v1, v2, Y14 and Y15.
#define ADDROWS(v0, v1, v2, v3, acc) \
	VUNPCKLPD  v1, v0, Y14; \
	VUNPCKHPD  v1, v0, v0; \
	VUNPCKLPD  v3, v2, v1; \
	VUNPCKHPD  v3, v2, v2; \
	VPERM2F128 $0x20, v1, Y14, Y15; \
	VADDPD     Y15, acc, acc; \
	VPERM2F128 $0x20, v2, v0, Y15; \
	VADDPD     Y15, acc, acc; \
	VPERM2F128 $0x31, v1, Y14, Y15; \
	VADDPD     Y15, acc, acc; \
	VPERM2F128 $0x31, v2, v0, Y15; \
	VADDPD     Y15, acc, acc

// ROW sets Y11 to the row (x0, x1, x2, x3) from the low lanes of four XMM
// registers. It overwrites X11 and X13.
#define ROW(x0, x1, x2, x3) \
	VUNPCKLPD   x1, x0, X11; \
	VUNPCKLPD   x3, x2, X13; \
	VINSERTF128 $1, X13, Y11, Y11

// Register use: Y0 = (sse, r0, r1, r2) and Y1 = (s00, s10, s11, s20), one
// sum per lane; X2 = s21; Y3..Y7 = a, b, c, 1, -1 in every lane; per
// point x, den, g1, g0 and r in Y8..Y10.

// func normalPassAVX(a, b, c float64, xs, ys []float64, ne *normal) (sse float64)
TEXT ·normalPassAVX(SB), NOSPLIT, $0-88
	VBROADCASTSD a+0(FP), Y3
	VBROADCASTSD b+8(FP), Y4
	VBROADCASTSD c+16(FP), Y5
	VBROADCASTSD one<>(SB), Y6
	VBROADCASTSD negone<>(SB), Y7
	MOVQ         xs_base+24(FP), SI
	MOVQ         xs_len+32(FP), CX
	MOVQ         ys_base+48(FP), DI
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       X2, X2, X2
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          tail

loop:
	VMOVUPD (SI)(AX*8), Y8     // x
	VMULPD  Y3, Y8, Y9         // a*x
	VADDPD  Y4, Y9, Y9         // den = a*x + b
	VMULPD  Y9, Y9, Y10        // den*den
	VDIVPD  Y10, Y7, Y10       // g1 = -1/(den*den)
	VMULPD  Y10, Y8, Y8        // g0 = g1*x
	VDIVPD  Y9, Y6, Y9         // 1/den
	VADDPD  Y5, Y9, Y9         // 1/den + c
	VSUBPD  (DI)(AX*8), Y9, Y9 // r = 1/den + c - y
	VMULPD  Y9, Y9, Y11        // r*r
	VMULPD  Y8, Y9, Y12        // g0*r
	VMULPD  Y10, Y9, Y13       // g1*r
	ADDROWS(Y11, Y12, Y13, Y9, Y0)
	VMULPD  Y8, Y8, Y11        // g0*g0
	VMULPD  Y10, Y8, Y12       // g1*g0
	VMULPD  Y10, Y10, Y13      // g1*g1
	ADDROWS(Y11, Y12, Y13, Y8, Y1)
	VADDSD       X10, X2, X2   // s21 += g1, lanes 0..3 in order
	VUNPCKHPD    X10, X10, X11
	VADDSD       X11, X2, X2
	VEXTRACTF128 $1, Y10, X10
	VADDSD       X10, X2, X2
	VUNPCKHPD    X10, X10, X11
	VADDSD       X11, X2, X2
	ADDQ         $4, AX
	CMPQ         AX, DX
	JLT          loop

tail:
	CMPQ AX, CX
	JGE  done

tailloop:
	VMOVSD (SI)(AX*8), X8      // the same operations on one point
	VMULSD X3, X8, X9
	VADDSD X4, X9, X9
	VMULSD X9, X9, X10
	VDIVSD X10, X7, X10
	VMULSD X10, X8, X8
	VDIVSD X9, X6, X9
	VADDSD X5, X9, X9
	VSUBSD (DI)(AX*8), X9, X9
	VMULSD X9, X9, X11
	VMULSD X8, X9, X12
	VMULSD X10, X9, X13
	ROW(X11, X12, X13, X9)
	VADDPD Y11, Y0, Y0
	VMULSD X8, X8, X11
	VMULSD X10, X8, X12
	VMULSD X10, X10, X13
	ROW(X11, X12, X13, X8)
	VADDPD Y11, Y1, Y1
	VADDSD X10, X2, X2
	INCQ   AX
	CMPQ   AX, CX
	JLT    tailloop

done:
	// ne is jtj row-major, then jtr: float64 slots 0..11.
	MOVQ         ne+72(FP), DI
	VMOVSD       X0, sse+80(FP)
	VMOVUPD      Y0, 64(DI)     // slot 8 (s22, below) and jtr
	VCVTSI2SDQ   CX, X8, X8     // s22 = float64(n)
	VMOVSD       X8, 64(DI)
	VMOVSD       X1, 0(DI)      // s00
	VMOVHPD      X1, 8(DI)      // s10, both slots
	VMOVHPD      X1, 24(DI)
	VEXTRACTF128 $1, Y1, X9
	VMOVSD       X9, 32(DI)     // s11
	VMOVHPD      X9, 16(DI)     // s20, both slots
	VMOVHPD      X9, 48(DI)
	VMOVSD       X2, 40(DI)     // s21, both slots
	VMOVSD       X2, 56(DI)
	VZEROUPPER
	RET
