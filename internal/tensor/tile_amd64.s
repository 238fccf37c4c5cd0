// AVX GEMM microkernel. See tile_amd64.go for the contract.
// Each lane of the eight YMM accumulators is one output element's serial
// chain: VMULPS then VADDPS per k, never FMA and never a horizontal add,
// so every lane reproduces the scalar multiply-round-add-round chain bit
// for bit.

#include "textflag.h"

// ROW adds a[row][kk] times the packed B row in Y8:Y9 to one row of C.
#define ROW(arow, lo, hi) \
	VBROADCASTSS (arow)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, lo, lo; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, hi, hi

// func tile4x16AVX(c []float32, ldc int, a, b []float32, k int, accum bool)
TEXT ·tile4x16AVX(SB), NOSPLIT, $0-89
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $2, R8               // C row stride in bytes
	LEAQ (DI)(R8*2), R9       // C row 2
	MOVQ a_base+32(FP), SI    // A row 0
	MOVQ b_base+56(FP), DX
	MOVQ k+80(FP), CX
	LEAQ (SI)(CX*4), R11      // A row 1
	LEAQ (R11)(CX*4), R12     // A row 2
	LEAQ (R12)(CX*4), R13     // A row 3

	CMPB accum+88(FP), $0
	JEQ  zero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	VMOVUPS (R9)(R8*1), Y6
	VMOVUPS 32(R9)(R8*1), Y7
	JMP     start

zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

start:
	XORQ AX, AX               // kk
	CMPQ AX, CX
	JGE  store

loop:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW(SI, Y0, Y1)
	ROW(R11, Y2, Y3)
	ROW(R12, Y4, Y5)
	ROW(R13, Y6, Y7)
	ADDQ    $64, DX
	INCQ    AX
	CMPQ    AX, CX
	JLT     loop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R9)(R8*1)
	VMOVUPS Y7, 32(R9)(R8*1)
	VZEROUPPER
	RET

// func cpuFeatures() (avx, avx512 bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, avx+0(FP)
	MOVB  $0, avx512+1(FP)
	XORL  AX, AX
	CPUID
	MOVL  AX, SI              // highest basic leaf
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX     // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV                    // XCR0
	MOVL  AX, DI
	ANDL  $6, AX              // XMM and YMM state saved by the OS
	CMPL  AX, $6
	JNE   done
	MOVB  $1, avx+0(FP)
	ANDL  $0xe6, DI           // and the opmask, ZMM_Hi256 and Hi16_ZMM state
	CMPL  DI, $0xe6
	JNE   done
	CMPL  SI, $7
	JLT   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $16, BX             // AVX512F
	JCC   done
	MOVB  $1, avx512+1(FP)

done:
	RET
