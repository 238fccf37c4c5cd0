// AVX-512F block select of Median.Commit. See median_amd64.go for the
// contract. Lane j of every ZMM register is coordinate j0+j: the gather
// reads each row's 16 values once, turns them into order keys and stores
// them row-major in blk, and every pass of the descent then compares the
// L1-resident block against one candidate key per lane. Integer ops only,
// EVEX-encoded throughout, ending with VZEROUPPER.

#include "textflag.h"

// func medianBlockAVX512(out *[2 * colBlock]uint32, rows [][]float32, j0 int, blk []uint32)
//
// Registers: DI out, R8 the next row header, CX n, R10 j0, SI blk; Z31 the
// sign bit, Z30 the magnitude mask, Z29 +Inf's bits, Z28 ones, Z27 k = n/2
// in every lane, Z10 the descent's prefix, Z11 its bit, Z12 the candidate.
TEXT ·medianBlockAVX512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ rows_base+8(FP), R8
	MOVQ rows_len+16(FP), CX
	MOVQ j0+32(FP), R10
	MOVQ blk_base+40(FP), SI

	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z31
	MOVL         $0x7fffffff, AX
	VPBROADCASTD AX, Z30
	MOVL         $0x7f800000, AX
	VPBROADCASTD AX, Z29
	MOVL         $1, AX
	VPBROADCASTD AX, Z28
	MOVQ         CX, AX
	SHRQ         $1, AX
	VPBROADCASTD AX, Z27

	// blk[16i:16i+16] = orderKey(rows[i][j0:j0+16]): flip every bit of a
	// negative value and the sign bit of a positive one, then zero the
	// lanes whose magnitude is above +Inf's, the NaNs.
	MOVQ SI, DX
	MOVQ CX, BX

gather:
	MOVQ      (R8), R9
	VMOVDQU32 (R9)(R10*4), Z0
	VPSRAD    $31, Z0, Z1
	VPORD     Z31, Z1, Z1
	VPANDD    Z30, Z0, Z2
	VPCMPUD   $2, Z29, Z2, K1 // K1: |v| <= +Inf, not a NaN
	VPXORD.Z  Z1, Z0, K1, Z0
	VMOVDQU32 Z0, (DX)
	ADDQ      $24, R8
	ADDQ      $64, DX
	DECQ      BX
	JNZ       gather

	// The rank-k key of a lane is the largest key p with fewer than k+1
	// keys below it. Build p from the top bit down: keep each bit whose
	// candidate prefix still has at most k keys below it. Two count
	// registers, one per row of a pair, keep the masked adds off one
	// dependency chain.
	VPXORD    Z10, Z10, Z10
	VMOVDQA32 Z31, Z11
	MOVL      $32, R11

pass:
	VPORD  Z11, Z10, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	MOVQ   SI, DX
	MOVQ   CX, BX
	SHRQ   $1, BX
	JZ     odd

pair:
	VPCMPUD $6, (DX), Z12, K1 // K1: key < candidate
	VPCMPUD $6, 64(DX), Z12, K2
	VPADDD  Z28, Z13, K1, Z13
	VPADDD  Z28, Z14, K2, Z14
	ADDQ    $128, DX
	DECQ    BX
	JNZ     pair

odd:
	TESTQ   $1, CX
	JZ      count
	VPCMPUD $6, (DX), Z12, K1
	VPADDD  Z28, Z13, K1, Z13

count:
	VPADDD    Z14, Z13, Z13
	VPCMPUD   $2, Z27, Z13, K1 // K1: at most k keys below the candidate
	VMOVDQA32 Z12, K1, Z10
	VPSRLD    $1, Z11, Z11
	DECL      R11
	JNZ       pass

	VMOVDQU32 Z10, 64(DI)
	TESTQ     $1, CX
	JNZ       done

	// Even n: rank k-1 is the largest key below p when exactly k keys are
	// below it, and p itself when fewer are.
	VPXORD Z13, Z13, Z13
	VPXORD Z15, Z15, Z15
	MOVQ   SI, DX
	MOVQ   CX, BX

below:
	VPCMPUD $6, (DX), Z10, K1
	VPADDD  Z28, Z13, K1, Z13
	VPMAXUD (DX), Z15, K1, Z15
	ADDQ    $64, DX
	DECQ    BX
	JNZ     below

	VPCMPUD   $0, Z27, Z13, K1 // K1: exactly k keys below p
	VMOVDQA32 Z15, K1, Z10
	VMOVDQU32 Z10, (DI)

done:
	VZEROUPPER
	RET
