#include "textflag.h"

// The flat scan of scan.go, sixteen corpus rows per block, one row per
// vector lane. Every lane runs its row's own chain — from zero, per
// dimension in ascending order one separately rounded subtract, multiply
// and add — so each distance is sqDist's and scanBlocksGo's bit for bit.
// AVX1 only: a fused multiply-add rounds once and would break that.

// func scanBlocksAVX(dst, q, cols *float64, dim, blocks int, bound float64)
//
// dst[b*16+j] for b < blocks, j < 16: the sum over d < dim of
// (q[d] - cols[(b*dim+d)*16+j])². After every fourth dimension, if more
// remain and all sixteen partial sums are > bound, the block stops there
// and its partial sums are stored instead. dim and blocks must be
// positive. Reads cols[0 .. blocks*dim*16) and q[0 .. dim), writes
// dst[0 .. blocks*16).
TEXT ·scanBlocksAVX(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         cols+16(FP), DX
	MOVQ         dim+24(FP), BX
	MOVQ         blocks+32(FP), R8
	VBROADCASTSD bound+40(FP), Y15

block:
	VXORPD Y0, Y0, Y0 // rows 0..3
	VXORPD Y1, Y1, Y1 // rows 4..7
	VXORPD Y2, Y2, Y2 // rows 8..11
	VXORPD Y3, Y3, Y3 // rows 12..15
	MOVQ   SI, AX     // q[d]
	MOVQ   BX, CX     // dimensions left
	MOVQ   $4, R10    // dimensions until the next check

dims:
	VBROADCASTSD (AX), Y4
	VSUBPD       (DX), Y4, Y5   // q[d] - row
	VSUBPD       32(DX), Y4, Y6
	VSUBPD       64(DX), Y4, Y7
	VSUBPD       96(DX), Y4, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, AX
	ADDQ         $128, DX
	DECQ         CX
	JZ           store
	DECQ         R10
	JNZ          dims

	MOVQ      $4, R10
	VCMPPD    $0x1e, Y15, Y0, Y9 // GT_OQ: false for NaN
	VCMPPD    $0x1e, Y15, Y1, Y10
	VCMPPD    $0x1e, Y15, Y2, Y11
	VCMPPD    $0x1e, Y15, Y3, Y12
	VANDPD    Y10, Y9, Y9
	VANDPD    Y12, Y11, Y11
	VANDPD    Y11, Y9, Y9
	VMOVMSKPD Y9, R11
	CMPQ      R11, $15
	JNE       dims
	SHLQ      $7, CX // skip the block's remaining dimensions
	ADDQ      CX, DX

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	DECQ    R8
	JNZ     block

	VZEROUPPER
	RET
