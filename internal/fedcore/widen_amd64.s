// AVX widening add of Bundle.Add. See widen_amd64.go for the contract.
// Each lane is one sum[i] += float64(x[i]): VCVTPS2PD is exact, and
// VADDPD rounds once, as the scalar ADDSD does. The widened value is the
// first source of every add, matching the operand order of the compiled
// Go loop, which decides the payload when both operands are NaN.
// VEX-encoded throughout, ending with VZEROUPPER.

#include "textflag.h"

// WIDEN4 adds the 4 values at xoff(SI) into the 4 sums at soff(DI),
// through register r.
#define WIDEN4(xoff, soff, r) \
	VCVTPS2PD xoff(SI), r; \
	VADDPD    soff(DI), r, r; \
	VMOVUPD   r, soff(DI)

// func widenAddAVX(sum []float64, x []float32)
TEXT ·widenAddAVX(SB), NOSPLIT, $0-48
	MOVQ sum_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX

loop16:
	CMPQ CX, $16
	JLT  loop4
	WIDEN4(0, 0, Y0)
	WIDEN4(16, 32, Y1)
	WIDEN4(32, 64, Y2)
	WIDEN4(48, 96, Y3)
	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	WIDEN4(0, 0, Y0)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ     CX, CX
	JEQ       done
	VCVTSS2SD (SI), X0, X0
	VADDSD    (DI), X0, X0
	VMOVSD    X0, (DI)
	ADDQ      $4, SI
	ADDQ      $8, DI
	DECQ      CX
	JMP       tail

done:
	VZEROUPPER
	RET
