#include "textflag.h"

// The polar multiplier sqrt(-2*ln(s)/s) for four s at a time in AVX2
// (VEX-256). The logarithm is math.Log's amd64 assembly
// ($GOROOT/src/math/log_amd64.s) lane by lane: the same constants, the same
// operations in the same order and no FMA, so every lane rounds as the
// scalar code does. Its zero, negative, Inf and NaN branches are left out:
// every positive finite s takes the main path. Then VMULPD by -2, VDIVPD by
// s and VSQRTPD, each correctly rounded as the scalar MULSD, DIVSD and
// SQRTSD of math.Sqrt(-2 * math.Log(s) / s) are.

#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(fracMask, 0x000FFFFFFFFFFFFF)
CONST4(half, 0x3FE0000000000000)      // 0.5
CONST4(two52, 0x4330000000000000)     // 2^52
CONST4(two52bias, 0x43300000000003FE) // 2^52 + 0x3FE
CONST4(hSqrt2, 0x3FE6A09E667F3BCD)    // sqrt(2)/2
CONST4(one, 0x3FF0000000000000)
CONST4(two, 0x4000000000000000)
CONST4(minusTwo, 0xC000000000000000)
CONST4(ln2Hi, 0x3FE62E42FEE00000)
CONST4(ln2Lo, 0x3DEA39EF35793C76)
CONST4(l1, 0x3FE5555555555593)
CONST4(l2, 0x3FD999999997FA04)
CONST4(l3, 0x3FD2492494229359)
CONST4(l4, 0x3FCC71C51D8E78AF)
CONST4(l5, 0x3FC7466496CB03DE)
CONST4(l6, 0x3FC39A09D078C69F)
CONST4(l7, 0x3FC2F112DF3E5244)

// func polarMulsAVX2(s *float64, n int)
TEXT ·polarMulsAVX2(SB), NOSPLIT, $0-16
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX

loop:
	VMOVUPD (SI), Y0 // x

	// f1, k := math.Frexp(x): f1 takes x's fraction with exponent -1, k is
	// the biased exponent minus 0x3FE, made a float64 by the 2^52 trick.
	VANDPD    fracMask<>(SB), Y0, Y2
	VORPD     half<>(SB), Y2, Y2 // f1
	VPSRLQ    $52, Y0, Y1
	VORPD     two52<>(SB), Y1, Y1
	VSUBPD    two52bias<>(SB), Y1, Y1 // k

	// if !(sqrt(2)/2 < f1) { k -= 1; f1 *= 2 }
	VMOVUPD   hSqrt2<>(SB), Y3
	VCMPPD    $5, Y2, Y3, Y3 // not-less-than: 0 or ^0
	VANDPD    one<>(SB), Y3, Y3 // 0 or 1
	VSUBPD    Y3, Y1, Y1
	VADDPD    one<>(SB), Y3, Y3 // 1 or 2
	VMULPD    Y3, Y2, Y2

	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD    one<>(SB), Y2, Y2 // f
	VADDPD    two<>(SB), Y2, Y4
	VDIVPD    Y4, Y2, Y3 // s
	VMULPD    Y3, Y3, Y4 // s2
	VMULPD    Y4, Y4, Y5 // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD    l7<>(SB), Y5, Y6
	VADDPD    l5<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    l3<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    l1<>(SB), Y6, Y6
	VMULPD    Y6, Y4, Y4 // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD    l6<>(SB), Y5, Y6
	VADDPD    l4<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    l2<>(SB), Y6, Y6
	VMULPD    Y6, Y5, Y5 // t2
	VADDPD    Y5, Y4, Y4 // R

	// hfsq := 0.5 * f * f
	VMULPD    half<>(SB), Y2, Y6
	VMULPD    Y2, Y6, Y6 // hfsq

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD    Y6, Y4, Y4 // hfsq+R
	VMULPD    Y4, Y3, Y3 // s*(hfsq+R)
	VMULPD    ln2Lo<>(SB), Y1, Y4
	VADDPD    Y4, Y3, Y3
	VSUBPD    Y3, Y6, Y6
	VSUBPD    Y2, Y6, Y6
	VMULPD    ln2Hi<>(SB), Y1, Y1
	VSUBPD    Y6, Y1, Y1 // ln(x)

	// sqrt(-2 * ln(x) / x)
	VMULPD    minusTwo<>(SB), Y1, Y1
	VDIVPD    Y0, Y1, Y1
	VSQRTPD   Y1, Y1
	VMOVUPD   Y1, (SI)

	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  loop

	VZEROUPPER
	RET
