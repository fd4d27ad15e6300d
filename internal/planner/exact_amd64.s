#include "textflag.h"

// The exact DP's two sweeps in AVX (VEX-256), four buckets at a time. Every
// value is a positive sum of stage times or +Inf: no NaN, no signed zero,
// and equal values have equal bits, so VMINPD and VMAXPD (which return
// their second operand on a tie) pick the bits Go's min and max pick, and
// each VADDPD rounds as the scalar add does.

// func minTwoAVX(row, v1, v2 *float64, n int)
TEXT ·minTwoAVX(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), SI
	MOVQ v1+8(FP), DI
	MOVQ v2+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop:
	VMOVUPD (SI)(AX*8), Y0 // x
	VMOVUPD (DI)(AX*8), Y1 // v1
	VMAXPD  Y0, Y1, Y2     // max(v1, x)
	VMINPD  (DX)(AX*8), Y2, Y2
	VMOVUPD Y2, (DX)(AX*8) // v2 = min(v2, max(v1, x))
	VMINPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8) // v1 = min(v1, x)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop

	VZEROUPPER
	RET

// func minPlusAVX(dst, src, v1, v2 *float64, n int, warm, cold float64)
TEXT ·minPlusAVX(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         v1+16(FP), R8
	MOVQ         v2+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD warm+40(FP), Y14
	VBROADCASTSD cold+48(FP), Y15
	XORQ         AX, AX

loop:
	VMOVUPD   (SI)(AX*8), Y0 // src
	VMOVUPD   (R8)(AX*8), Y1 // v1
	VCMPPD    $0, Y1, Y0, Y2 // src == v1
	VBLENDVPD Y2, (R9)(AX*8), Y1, Y1 // the other memories' minimum
	VADDPD    Y14, Y0, Y0
	VADDPD    Y15, Y1, Y1
	VMINPD    Y1, Y0, Y0
	VMINPD    (DI)(AX*8), Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

	VZEROUPPER
	RET
