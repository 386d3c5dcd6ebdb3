#include "textflag.h"

// The two forward primitives of kernels.go, four outputs per vector lane
// set. Every lane runs its output's own chain — bias, then one separately
// rounded multiply and one separately rounded add per term, in ascending
// order — so the results are the portable Go twins' bit for bit. AVX1
// only: a fused multiply-add rounds once and would break that.

// One tap of one input channel: eight inputs starting at xo(DX) times the
// tap's weight in each of the two output channels, added to Y0..Y3.
#define TAP(xo, wo) \
	VMOVUPD      xo(DX), Y4;    \
	VMOVUPD      xo+32(DX), Y5; \
	VBROADCASTSD wo(R8), Y6;    \
	VBROADCASTSD wo(R9), Y7;    \
	VMULPD       Y4, Y6, Y8;    \
	VMULPD       Y5, Y6, Y9;    \
	VMULPD       Y4, Y7, Y10;   \
	VMULPD       Y5, Y7, Y11;   \
	VADDPD       Y8, Y0, Y0;    \
	VADDPD       Y9, Y1, Y1;    \
	VADDPD       Y10, Y2, Y2;   \
	VADDPD       Y11, Y3, Y3

// func conv3TileAVX(y0, y1, x, w0, w1 *float64, b0, b1 float64, cin, l int)
//
// y0[t], y1[t] for t in [0,8): b + sum over ci < cin, j < 3 of
// w[ci*3+j] * x[ci*l+t+j]. Reads x[ci*l .. ci*l+9], never past it.
TEXT ·conv3TileAVX(SB), NOSPLIT, $0-72
	MOVQ         y0+0(FP), DI
	MOVQ         y1+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         w0+24(FP), R8
	MOVQ         w1+32(FP), R9
	VBROADCASTSD b0+40(FP), Y0 // channel 0, t 0..3
	VMOVUPD      Y0, Y1        // channel 0, t 4..7
	VBROADCASTSD b1+48(FP), Y2 // channel 1, t 0..3
	VMOVUPD      Y2, Y3        // channel 1, t 4..7
	MOVQ         cin+56(FP), CX
	MOVQ         l+64(FP), BX
	SHLQ         $3, BX        // input row stride in bytes

channel:
	TAP(0, 0)
	TAP(8, 8)
	TAP(16, 16)
	ADDQ BX, DX
	ADDQ $24, R8
	ADDQ $24, R9
	DECQ CX
	JNZ  channel

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VZEROUPPER
	RET

// Four inputs (byte offset AX) of four weight rows r0..r3, transposed in
// registers: each 128-bit load and insert puts two inputs of rows r0|r2
// and r1|r3 side by side, and the unpacks interleave those, so Y8..Y11
// each hold one input's weight in four consecutive outputs. The four
// products are then added in ascending input order. Y12..Y15 hold
// x[i..i+3] broadcast.
#define ROWS4(r0, r1, r2, r3, acc) \
	VMOVUPD     (r0)(AX*1), X2;           \
	VMOVUPD     (r1)(AX*1), X3;           \
	VMOVUPD     16(r0)(AX*1), X4;         \
	VMOVUPD     16(r1)(AX*1), X5;         \
	VINSERTF128 $1, (r2)(AX*1), Y2, Y2;   \
	VINSERTF128 $1, (r3)(AX*1), Y3, Y3;   \
	VINSERTF128 $1, 16(r2)(AX*1), Y4, Y4; \
	VINSERTF128 $1, 16(r3)(AX*1), Y5, Y5; \
	VUNPCKLPD   Y3, Y2, Y8;               \
	VUNPCKHPD   Y3, Y2, Y9;               \
	VUNPCKLPD   Y5, Y4, Y10;              \
	VUNPCKHPD   Y5, Y4, Y11;              \
	VMULPD     Y12, Y8, Y8;        \
	VADDPD     Y8, acc, acc;       \
	VMULPD     Y13, Y9, Y9;        \
	VADDPD     Y9, acc, acc;       \
	VMULPD     Y14, Y10, Y10;      \
	VADDPD     Y10, acc, acc;      \
	VMULPD     Y15, Y11, Y11;      \
	VADDPD     Y11, acc, acc

// func dense8AVX(y, x, w, b *float64, in int)
//
// y[o] for o in [0,8): b[o] + sum over i < in of w[o*in+i] * x[i].
// in must be a positive multiple of 4.
TEXT ·dense8AVX(SB), NOSPLIT, $0-40
	MOVQ    x+8(FP), SI
	MOVQ    w+16(FP), R8
	MOVQ    b+24(FP), AX
	MOVQ    in+32(FP), CX
	SHLQ    $3, CX              // row stride in bytes
	VMOVUPD (AX), Y0            // outputs 0..3
	VMOVUPD 32(AX), Y1          // outputs 4..7
	LEAQ    (R8)(CX*1), R9      // rows 1..7
	LEAQ    (R9)(CX*1), R10
	LEAQ    (R10)(CX*1), R11
	LEAQ    (R11)(CX*1), R12
	LEAQ    (R12)(CX*1), R13
	LEAQ    (R13)(CX*1), DX
	LEAQ    (DX)(CX*1), BX
	XORQ    AX, AX

inputs:
	VBROADCASTSD (SI)(AX*1), Y12
	VBROADCASTSD 8(SI)(AX*1), Y13
	VBROADCASTSD 16(SI)(AX*1), Y14
	VBROADCASTSD 24(SI)(AX*1), Y15
	ROWS4(R8, R9, R10, R11, Y0)
	ROWS4(R12, R13, DX, BX, Y1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  inputs

	MOVQ    y+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
