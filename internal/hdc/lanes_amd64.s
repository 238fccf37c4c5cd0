// Class-lane kernels of the HD similarity kernel. See lanes_amd64.go for
// the contracts. Every lane of every vector accumulator is one class's
// float64 chain: a multiply then an add per element, never FMA and never a
// horizontal add, so every lane reproduces the scalar multiply-round-add-
// round chain bit for bit. laneSweepAVX is VEX-encoded throughout (a
// legacy-SSE instruction between YMM ops stalls on the upper-state
// transition) and ends with VZEROUPPER; laneFill uses only SSE2.

#include "textflag.h"

// HEAD converts h[AX] to float64 in all four lanes of Y0 and adds its
// square to the h·h chain in X7. Both writes of Y0 are whole-register, so
// no element waits on the previous one's multiplies.
#define HEAD \
	VBROADCASTSS (DI)(AX*4), X0; \
	VCVTPS2PD    X0, Y0; \
	VMULSD       X0, X0, X1; \
	VADDSD       X1, X7, X7

// QUAD adds the products of the four classes at byte offset off of the
// current row into the YMM accumulator acc.
#define QUAD(off, acc) \
	VMULPD off(SI), Y0, Y1; \
	VADDPD Y1, acc, acc

// ODDPAIR does the same for the two classes of an odd last lane pair, in
// XMM.
#define ODDPAIR(off, acc) \
	VMULPD off(SI), X0, X1; \
	VADDPD X1, acc, acc

// NEXT steps to the next row and element; the flags say whether one is left.
#define NEXT \
	ADDQ BX, SI; \
	INCQ AX; \
	CMPQ AX, CX

// func laneSweepAVX(dots, cs []float64, h []float32, kp, pairs int) float64
//
// Classes 0-3 accumulate in Y2 and 4-7 in Y3; the odd last pair of one,
// three or five pairs accumulates in X2, X3 or X4.
TEXT ·laneSweepAVX(SB), NOSPLIT, $0-96
	MOVQ dots_base+0(FP), R9
	MOVQ cs_base+24(FP), SI
	MOVQ h_base+48(FP), DI
	MOVQ h_len+56(FP), CX
	MOVQ kp+72(FP), BX
	SHLQ $3, BX              // row stride in bytes
	MOVQ pairs+80(FP), DX

	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX            // i

	CMPQ DX, $5
	JEQ  loop5
	CMPQ DX, $4
	JEQ  loop4
	CMPQ DX, $3
	JEQ  loop3
	CMPQ DX, $2
	JEQ  loop2

loop1:
	HEAD
	ODDPAIR(0, X2)
	NEXT
	JLT loop1
	VMOVUPD X2, (R9)
	JMP     done

loop2:
	HEAD
	QUAD(0, Y2)
	NEXT
	JLT loop2
	JMP store2

loop3:
	HEAD
	QUAD(0, Y2)
	ODDPAIR(32, X3)
	NEXT
	JLT loop3
	VMOVUPD X3, 32(R9)
	JMP     store2

loop4:
	HEAD
	QUAD(0, Y2)
	QUAD(32, Y3)
	NEXT
	JLT loop4
	JMP store4

loop5:
	HEAD
	QUAD(0, Y2)
	QUAD(32, Y3)
	ODDPAIR(64, X4)
	NEXT
	JLT loop5

	VMOVUPD X4, 64(R9)

store4:
	VMOVUPD Y3, 32(R9)

store2:
	VMOVUPD Y2, (R9)

done:
	VMOVSD     X7, ret+88(FP)
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
