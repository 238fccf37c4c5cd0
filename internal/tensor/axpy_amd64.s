// SSE microkernel for the AXPY-layout GEMM inner loop. See axpy_amd64.go
// for the contract. Uses only SSE1/SSE2 instructions (the Go amd64
// baseline), MULPS + ADDPS per lane — never FMA — so every lane reproduces
// the scalar float32 multiply-round-add-round chain bit for bit.

#include "textflag.h"

// func saxpyQuad(c, b0, b1, b2, b3 []float32, av *[4]float32, n4 int)
TEXT ·saxpyQuad(SB), NOSPLIT, $0-136
	MOVQ c_base+0(FP), DI
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), DX
	MOVQ b2_base+72(FP), CX
	MOVQ b3_base+96(FP), R8
	MOVQ av+120(FP), R9
	MOVQ n4+128(FP), R10

	// Broadcast the four A coefficients across SSE lanes.
	MOVSS  (R9), X4
	SHUFPS $0x00, X4, X4
	MOVSS  4(R9), X5
	SHUFPS $0x00, X5, X5
	MOVSS  8(R9), X6
	SHUFPS $0x00, X6, X6
	MOVSS  12(R9), X7
	SHUFPS $0x00, X7, X7

	XORQ AX, AX   // j, in float32 elements
	MOVQ R10, R11
	ANDQ $-8, R11 // j limit for the 8-wide unrolled loop

loop8:
	CMPQ   AX, R11
	JGE    tail4
	MOVUPS (DI)(AX*4), X0
	MOVUPS 16(DI)(AX*4), X1
	MOVUPS (SI)(AX*4), X2
	MULPS  X4, X2
	ADDPS  X2, X0
	MOVUPS 16(SI)(AX*4), X3
	MULPS  X4, X3
	ADDPS  X3, X1
	MOVUPS (DX)(AX*4), X2
	MULPS  X5, X2
	ADDPS  X2, X0
	MOVUPS 16(DX)(AX*4), X3
	MULPS  X5, X3
	ADDPS  X3, X1
	MOVUPS (CX)(AX*4), X2
	MULPS  X6, X2
	ADDPS  X2, X0
	MOVUPS 16(CX)(AX*4), X3
	MULPS  X6, X3
	ADDPS  X3, X1
	MOVUPS (R8)(AX*4), X2
	MULPS  X7, X2
	ADDPS  X2, X0
	MOVUPS 16(R8)(AX*4), X3
	MULPS  X7, X3
	ADDPS  X3, X1
	MOVUPS X0, (DI)(AX*4)
	MOVUPS X1, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    loop8

tail4:
	CMPQ   AX, R10
	JGE    done
	MOVUPS (DI)(AX*4), X0
	MOVUPS (SI)(AX*4), X2
	MULPS  X4, X2
	ADDPS  X2, X0
	MOVUPS (DX)(AX*4), X2
	MULPS  X5, X2
	ADDPS  X2, X0
	MOVUPS (CX)(AX*4), X2
	MULPS  X6, X2
	ADDPS  X2, X0
	MOVUPS (R8)(AX*4), X2
	MULPS  X7, X2
	ADDPS  X2, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    tail4

done:
	RET
