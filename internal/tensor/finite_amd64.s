// AVX finiteness scan. See finite_amd64.go for the contract. A value is
// non-finite when its exponent bits are all ones: masked with 0x7f800000
// it equals 0x7f800000, which as a float32 is +Inf, so an ordered float
// compare against the mask finds exactly those lanes (every other masked
// value is a finite float or zero). VEX-encoded throughout, ending with
// VZEROUPPER.

#include "textflag.h"

DATA expmask<>+0(SB)/4, $0x7f800000
GLOBL expmask<>(SB), RODATA|NOPTR, $4

// LANES8 tests the 8 values at off(SI), leaving all-ones in the lanes of
// dst that are non-finite.
#define LANES8(off, dst) \
	VANDPS  off(SI), Y0, dst; \
	VCMPPS  $0, Y0, dst, dst

// func allFiniteAVX(x []float32) bool
TEXT ·allFiniteAVX(SB), NOSPLIT, $0-25
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS expmask<>(SB), Y0

loop32:
	CMPQ    CX, $32
	JLT     loop8
	LANES8(0, Y1)
	LANES8(32, Y2)
	LANES8(64, Y3)
	LANES8(96, Y4)
	VORPS   Y2, Y1, Y1
	VORPS   Y4, Y3, Y3
	VORPS   Y3, Y1, Y1
	VTESTPS Y1, Y1
	JNE     nonfinite
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JLT     tail
	LANES8(0, Y1)
	VTESTPS Y1, Y1
	JNE     nonfinite
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     loop8

tail:
	TESTQ CX, CX
	JEQ   finite
	MOVL  (SI), AX
	ANDL  $0x7f800000, AX
	CMPL  AX, $0x7f800000
	JEQ   nonfinite
	ADDQ  $4, SI
	DECQ  CX
	JMP   tail

finite:
	VZEROUPPER
	MOVB $1, ret+24(FP)
	RET

nonfinite:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET
