// Class-lane kernels of the HD similarity kernel. See lanes_amd64.go for
// the contracts. The row-block sweeps put one hypervector in each lane of
// a vector register and broadcast one class lane at a time against them:
// every lane of every accumulator is one (row, class) float64 chain, a
// multiply then an add per element, never FMA and never a horizontal add,
// so every lane reproduces the scalar multiply-round-add-round chain bit
// for bit. The sweeps are VEX- or EVEX-encoded throughout (a legacy-SSE
// instruction between YMM or ZMM ops stalls on the upper-state transition)
// and end with VZEROUPPER; laneFill uses only SSE2.

#include "textflag.h"

// ROWS loads the four row pointers of offs[lo:lo+4] (element offsets into
// the float32 array at DI) into r0..r3.
#define ROWS(lo, r0, r1, r2, r3) \
	MOVQ (lo*8)(BX), r0; \
	LEAQ (DI)(r0*4), r0; \
	MOVQ (lo*8+8)(BX), r1; \
	LEAQ (DI)(r1*4), r1; \
	MOVQ (lo*8+16)(BX), r2; \
	LEAQ (DI)(r2*4), r2; \
	MOVQ (lo*8+24)(BX), r3; \
	LEAQ (DI)(r3*4), r3

// GATHER4 sets lanes 0-3 of x to element AX of the rows at r0..r3. The
// VEX VMOVSS clears the rest of the register, so no element waits on the
// previous one's.
#define GATHER4(r0, r1, r2, r3, x) \
	VMOVSS    (r0)(AX*4), x; \
	VINSERTPS $0x10, (r1)(AX*4), x, x; \
	VINSERTPS $0x20, (r2)(AX*4), x, x; \
	VINSERTPS $0x30, (r3)(AX*4), x, x

// NEXT steps to the next lane row and element; the flags say whether one
// is left.
#define NEXT \
	ADDQ BX, SI; \
	INCQ AX; \
	CMPQ AX, CX

// SETUP loads the arguments shared by both sweeps: cs in SI, the lane row
// stride in BX, d in CX, dots in DI, and element 0 in AX.
#define SETUP \
	MOVQ cs_base+32(FP), SI; \
	MOVQ d+88(FP), CX; \
	MOVQ kp+96(FP), BX; \
	SHLQ $3, BX; \
	MOVQ dots_base+0(FP), DI; \
	XORQ AX, AX

// ZERO clears the h·h accumulator Y12 and the class accumulators Y2-Y11;
// a VEX write clears the upper ZMM bits too.
#define ZERO \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9; \
	VXORPD Y10, Y10, Y10; \
	VXORPD Y11, Y11, Y11; \
	VXORPD Y12, Y12, Y12

// DISPATCH jumps to the loop for w classes; w = 2 falls through.
#define DISPATCH(l4, l6, l8, l10) \
	CMPQ w+104(FP), $10; \
	JEQ  l10; \
	CMPQ w+104(FP), $8; \
	JEQ  l8; \
	CMPQ w+104(FP), $6; \
	JEQ  l6; \
	CMPQ w+104(FP), $4; \
	JEQ  l4

// HEAD8 converts element AX of the eight rows to float64 in the lanes of
// Z0 and adds the squares to the eight h·h chains in Z12.
#define HEAD8 \
	GATHER4(DX, R8, R9, R10, X0); \
	GATHER4(R11, R12, R13, R14, X1); \
	VINSERTF128 $1, X1, Y0, Y0; \
	VCVTPS2PD   Y0, Z0; \
	VMULPD      Z0, Z0, Z1; \
	VADDPD      Z1, Z12, Z12

// CLASS8 adds the class lane at byte offset off of the current lane row,
// broadcast, times the eight rows into acc.
#define CLASS8(off, acc) \
	VMULPD.BCST off(SI), Z0, Z1; \
	VADDPD      Z1, acc, acc

// func sweep8AVX512(dots []float64, hh *[8]float64, cs []float64, data []float32, offs *[8]int, d, kp, w int)
//
// Rows 0-7 are addressed from DX, R8-R14; class k accumulates in Z(2+k)
// and its eight dots are stored at byte offset 64k of dots.
TEXT ·sweep8AVX512(SB), NOSPLIT, $0-112
	MOVQ data_base+56(FP), DI
	MOVQ offs+80(FP), BX
	ROWS(0, DX, R8, R9, R10)
	ROWS(4, R11, R12, R13, R14)
	SETUP
	ZERO
	DISPATCH(loop8x4, loop8x6, loop8x8, loop8x10)

loop8x2:
	HEAD8
	CLASS8(0, Z2)
	CLASS8(8, Z3)
	NEXT
	JLT loop8x2
	JMP store8x2

loop8x4:
	HEAD8
	CLASS8(0, Z2)
	CLASS8(8, Z3)
	CLASS8(16, Z4)
	CLASS8(24, Z5)
	NEXT
	JLT loop8x4
	JMP store8x4

loop8x6:
	HEAD8
	CLASS8(0, Z2)
	CLASS8(8, Z3)
	CLASS8(16, Z4)
	CLASS8(24, Z5)
	CLASS8(32, Z6)
	CLASS8(40, Z7)
	NEXT
	JLT loop8x6
	JMP store8x6

loop8x8:
	HEAD8
	CLASS8(0, Z2)
	CLASS8(8, Z3)
	CLASS8(16, Z4)
	CLASS8(24, Z5)
	CLASS8(32, Z6)
	CLASS8(40, Z7)
	CLASS8(48, Z8)
	CLASS8(56, Z9)
	NEXT
	JLT loop8x8
	JMP store8x8

loop8x10:
	HEAD8
	CLASS8(0, Z2)
	CLASS8(8, Z3)
	CLASS8(16, Z4)
	CLASS8(24, Z5)
	CLASS8(32, Z6)
	CLASS8(40, Z7)
	CLASS8(48, Z8)
	CLASS8(56, Z9)
	CLASS8(64, Z10)
	CLASS8(72, Z11)
	NEXT
	JLT loop8x10

	VMOVUPD Z11, 576(DI)
	VMOVUPD Z10, 512(DI)

store8x8:
	VMOVUPD Z9, 448(DI)
	VMOVUPD Z8, 384(DI)

store8x6:
	VMOVUPD Z7, 320(DI)
	VMOVUPD Z6, 256(DI)

store8x4:
	VMOVUPD Z5, 192(DI)
	VMOVUPD Z4, 128(DI)

store8x2:
	VMOVUPD Z3, 64(DI)
	VMOVUPD Z2, (DI)
	MOVQ    hh+24(FP), BX
	VMOVUPD Z12, (BX)
	VZEROUPPER
	RET

// HEAD4 converts element AX of the four rows to float64 in the lanes of
// Y0 and adds the squares to the four h·h chains in Y12.
#define HEAD4 \
	GATHER4(DX, R8, R9, R10, X0); \
	VCVTPS2PD X0, Y0; \
	VMULPD    Y0, Y0, Y1; \
	VADDPD    Y1, Y12, Y12

// CLASS4 adds the class lane at byte offset off of the current lane row,
// broadcast, times the four rows into acc.
#define CLASS4(off, acc) \
	VBROADCASTSD off(SI), Y1; \
	VMULPD       Y1, Y0, Y1; \
	VADDPD       Y1, acc, acc

// func sweep4AVX(dots []float64, hh *[8]float64, cs []float64, data []float32, offs *[8]int, d, kp, w int)
//
// Rows 0-3 are addressed from DX, R8-R10; class k accumulates in Y(2+k)
// and its four dots are stored at byte offset 64k of dots (the stride of
// an eight-row block).
TEXT ·sweep4AVX(SB), NOSPLIT, $0-112
	MOVQ data_base+56(FP), DI
	MOVQ offs+80(FP), BX
	ROWS(0, DX, R8, R9, R10)
	SETUP
	ZERO
	DISPATCH(loop4x4, loop4x6, loop4x8, loop4x10)

loop4x2:
	HEAD4
	CLASS4(0, Y2)
	CLASS4(8, Y3)
	NEXT
	JLT loop4x2
	JMP store4x2

loop4x4:
	HEAD4
	CLASS4(0, Y2)
	CLASS4(8, Y3)
	CLASS4(16, Y4)
	CLASS4(24, Y5)
	NEXT
	JLT loop4x4
	JMP store4x4

loop4x6:
	HEAD4
	CLASS4(0, Y2)
	CLASS4(8, Y3)
	CLASS4(16, Y4)
	CLASS4(24, Y5)
	CLASS4(32, Y6)
	CLASS4(40, Y7)
	NEXT
	JLT loop4x6
	JMP store4x6

loop4x8:
	HEAD4
	CLASS4(0, Y2)
	CLASS4(8, Y3)
	CLASS4(16, Y4)
	CLASS4(24, Y5)
	CLASS4(32, Y6)
	CLASS4(40, Y7)
	CLASS4(48, Y8)
	CLASS4(56, Y9)
	NEXT
	JLT loop4x8
	JMP store4x8

loop4x10:
	HEAD4
	CLASS4(0, Y2)
	CLASS4(8, Y3)
	CLASS4(16, Y4)
	CLASS4(24, Y5)
	CLASS4(32, Y6)
	CLASS4(40, Y7)
	CLASS4(48, Y8)
	CLASS4(56, Y9)
	CLASS4(64, Y10)
	CLASS4(72, Y11)
	NEXT
	JLT loop4x10

	VMOVUPD Y11, 576(DI)
	VMOVUPD Y10, 512(DI)

store4x8:
	VMOVUPD Y9, 448(DI)
	VMOVUPD Y8, 384(DI)

store4x6:
	VMOVUPD Y7, 320(DI)
	VMOVUPD Y6, 256(DI)

store4x4:
	VMOVUPD Y5, 192(DI)
	VMOVUPD Y4, 128(DI)

store4x2:
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y2, (DI)
	MOVQ    hh+24(FP), BX
	VMOVUPD Y12, (BX)
	VZEROUPPER
	RET

// PAIR loads entry i of rows a and b, stores them as one float64 lane
// pair at byte offset off of the current lane row, and adds their squares
// to the two norm chains in acc.
#define PAIR(a, b, off, acc) \
	MOVSS    a, X0; \
	MOVSS    b, X1; \
	UNPCKLPS X1, X0; \
	CVTPS2PD X0, X0; \
	MOVUPD   X0, off(DI); \
	MULPD    X0, X0; \
	ADDPD    X0, acc

// ADVANCE steps the three row pointers to the next entry and the lane
// pointer to the next row; the flags say whether one is left.
#define ADVANCE \
	ADDQ $4, SI; \
	ADDQ $4, DX; \
	ADDQ $4, R10; \
	ADDQ BX, DI; \
	DECQ CX

// func laneFill(sq, cs []float64, p []float32, d, kp, pairs int)
//
// Rows 0..9 of p (stride RS = 4d bytes in R8) are addressed from three
// pointers: SI = row 0, DX = row 1, R10 = row 6, so row r is SI + r*RS for
// r in {0, 2, 4, 8}, DX + (r-1)*RS for r in {1, 3, 5, 9}, and R10 or
// R10 + RS for r in {6, 7}.
TEXT ·laneFill(SB), NOSPLIT, $0-96
	MOVQ sq_base+0(FP), R9
	MOVQ cs_base+24(FP), DI
	MOVQ p_base+48(FP), SI
	MOVQ d+72(FP), CX
	MOVQ CX, R8
	SHLQ $2, R8              // RS
	LEAQ (SI)(R8*1), DX
	LEAQ (SI)(R8*2), R10
	LEAQ (R10)(R8*4), R10
	MOVQ kp+80(FP), BX
	SHLQ $3, BX              // lane row stride in bytes
	MOVQ pairs+88(FP), AX

	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6

	CMPQ AX, $5
	JEQ  fill5
	CMPQ AX, $4
	JEQ  fill4
	CMPQ AX, $3
	JEQ  fill3
	CMPQ AX, $2
	JEQ  fill2

fill1:
	PAIR((SI), (DX), 0, X2)
	ADVANCE
	JNZ fill1
	JMP sum1

fill2:
	PAIR((SI), (DX), 0, X2)
	PAIR((SI)(R8*2), (DX)(R8*2), 16, X3)
	ADVANCE
	JNZ fill2
	JMP sum2

fill3:
	PAIR((SI), (DX), 0, X2)
	PAIR((SI)(R8*2), (DX)(R8*2), 16, X3)
	PAIR((SI)(R8*4), (DX)(R8*4), 32, X4)
	ADVANCE
	JNZ fill3
	JMP sum3

fill4:
	PAIR((SI), (DX), 0, X2)
	PAIR((SI)(R8*2), (DX)(R8*2), 16, X3)
	PAIR((SI)(R8*4), (DX)(R8*4), 32, X4)
	PAIR((R10), (R10)(R8*1), 48, X5)
	ADVANCE
	JNZ fill4
	JMP sum4

fill5:
	PAIR((SI), (DX), 0, X2)
	PAIR((SI)(R8*2), (DX)(R8*2), 16, X3)
	PAIR((SI)(R8*4), (DX)(R8*4), 32, X4)
	PAIR((R10), (R10)(R8*1), 48, X5)
	PAIR((SI)(R8*8), (DX)(R8*8), 64, X6)
	ADVANCE
	JNZ fill5

	MOVUPD X6, 64(R9)

sum4:
	MOVUPD X5, 48(R9)

sum3:
	MOVUPD X4, 32(R9)

sum2:
	MOVUPD X3, 16(R9)

sum1:
	MOVUPD X2, 0(R9)
	RET
