// Sparse ternary projection kernel. See project_amd64.go for the
// contract and encoder.go's projectGo for the reference. Every lane of
// every accumulator is one (row, sample) float32 chain of additions in
// ascending non-zero order, starting from +0; a negative entry adds the
// negated copy of its feature, so no multiply and no FMA touch the chain,
// and no horizontal add reorders it. The kernel is VEX-encoded throughout
// and ends with VZEROUPPER.

#include "textflag.h"

DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4
DATA signbit<>+0(SB)/4, $0x80000000
GLOBL signbit<>(SB), RODATA|NOPTR, $4

// ADD4 adds, for rows r..r+3 of the group at the offsets in R13's current
// line, both halves of each block row to the accumulator pairs.
#define ADD4(r) \
	MOVL   (r*4)(R13), AX; \
	VADDPS (SI)(AX*1), Y0, Y0; \
	VADDPS 32(SI)(AX*1), Y1, Y1; \
	MOVL   (r*4+4)(R13), AX; \
	VADDPS (SI)(AX*1), Y2, Y2; \
	VADDPS 32(SI)(AX*1), Y3, Y3; \
	MOVL   (r*4+8)(R13), AX; \
	VADDPS (SI)(AX*1), Y4, Y4; \
	VADDPS 32(SI)(AX*1), Y5, Y5; \
	MOVL   (r*4+12)(R13), AX; \
	VADDPS (SI)(AX*1), Y6, Y6; \
	VADDPS 32(SI)(AX*1), Y7, Y7

// SIGN8 replaces yr by +1 where yr >= 0 and -1 elsewhere, NaN included:
// Y13 holds 0, Y14 the sign bit and Y15 +1.
#define SIGN8(yr) \
	VCMPPS  $0x1d, Y13, yr, Y12; \
	VANDNPS Y14, Y12, Y12; \
	VORPS   Y15, Y12, yr

// STORE8 transposes one half block, rows 0-3 in a, b, c and e (eight
// samples each), and stores each sample's four outputs: samples 0-3 of
// the half at base lo, 4-7 at base hi.
#define STORE8(a, b, c, e, lo, hi) \
	VUNPCKLPS    b, a, Y8; \
	VUNPCKHPS    b, a, Y9; \
	VUNPCKLPS    e, c, Y10; \
	VUNPCKHPS    e, c, Y11; \
	VUNPCKLPD    Y10, Y8, Y12; \
	VUNPCKHPD    Y10, Y8, Y13; \
	VUNPCKLPD    Y11, Y9, Y14; \
	VUNPCKHPD    Y11, Y9, Y15; \
	VMOVUPS      X12, (lo); \
	VMOVUPS      X13, (lo)(R8*1); \
	VMOVUPS      X14, (lo)(R8*2); \
	VMOVUPS      X15, (lo)(R9*1); \
	VEXTRACTF128 $1, Y12, (hi); \
	VEXTRACTF128 $1, Y13, (hi)(R8*1); \
	VEXTRACTF128 $1, Y14, (hi)(R8*2); \
	VEXTRACTF128 $1, Y15, (hi)(R9*1)

// func projectAVX(dst []float32, ldd int, zpm []float32, offs []int32, groups, s int, binarize bool, scale float32)
TEXT ·projectAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $2, R8                // dst row stride in bytes
	LEAQ (R8)(R8*2), R9        // three rows
	LEAQ (DI)(R8*4), R10       // sample 4
	LEAQ (R10)(R8*4), R11      // sample 8
	LEAQ (R11)(R8*4), R12      // sample 12
	MOVQ zpm_base+32(FP), SI
	MOVQ offs_base+56(FP), DX  // the group's first line of offsets
	MOVQ s+88(FP), R15
	SHLQ $6, R15               // bytes of offsets per group
	MOVQ groups+80(FP), CX
	TESTQ CX, CX
	JEQ  doneAVX

groupAVX:
	XORQ R14, R14              // four-row quarter of the group, in bytes of offsets

quarterAVX:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ (DX)(R14*1), R13
	MOVQ s+88(FP), BX

nzAVX:
	ADD4(0)
	ADDQ $64, R13
	DECQ BX
	JNZ  nzAVX

	CMPB binarize+96(FP), $0
	JEQ  rawAVX
	VXORPS       Y13, Y13, Y13
	VBROADCASTSS signbit<>(SB), Y14
	VBROADCASTSS one<>(SB), Y15
	SIGN8(Y0)
	SIGN8(Y1)
	SIGN8(Y2)
	SIGN8(Y3)
	SIGN8(Y4)
	SIGN8(Y5)
	SIGN8(Y6)
	SIGN8(Y7)
	JMP  storeAVX

rawAVX:
	VBROADCASTSS scale+100(FP), Y15
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3
	VMULPS Y15, Y4, Y4
	VMULPS Y15, Y5, Y5
	VMULPS Y15, Y6, Y6
	VMULPS Y15, Y7, Y7

storeAVX:
	STORE8(Y0, Y2, Y4, Y6, DI, R10)
	STORE8(Y1, Y3, Y5, Y7, R11, R12)
	ADDQ $16, DI
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R14
	CMPQ R14, $64
	JLT  quarterAVX

	ADDQ R15, DX
	DECQ CX
	JNZ  groupAVX

doneAVX:
	VZEROUPPER
	RET
