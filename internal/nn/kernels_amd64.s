#include "textflag.h"

// The three forward primitives of kernels.go, four outputs per vector
// lane set (conv3Edges, which scatters like conv3BwdEdges, sits beside
// it below). Every lane runs its output's own chain — bias, then one
// separately rounded multiply and one separately rounded add per term,
// in ascending order — so the results are the portable Go twins' bit for
// bit. AVX1 only: a fused multiply-add rounds once and would break that.

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

// One input of eight neurons for four rows: the input's four values (one
// per row, xt is input-major) times each neuron's weight, broadcast,
// added to that neuron's accumulator.
#define NEURON(r, acc, t) \
	VBROADCASTSD (r)(AX*1), t; \
	VMULPD       Y8, t, t;     \
	VADDPD       t, acc, acc

// Transposes four accumulators a0..a3 (four neurons, a lane per row) into
// four rows of four neurons and stores them at off(DI), off(DI)(BX*1),
// off(DI)(BX*2) and off(DI)(R9*1) (R9 = 3*BX).
#define STORE4x4(a0, a1, a2, a3, off) \
	VUNPCKLPD  a1, a0, Y8;        \
	VUNPCKHPD  a1, a0, Y9;        \
	VUNPCKLPD  a3, a2, Y10;       \
	VUNPCKHPD  a3, a2, Y11;       \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VMOVUPD    Y12, off(DI);      \
	VMOVUPD    Y13, off(DI)(BX*1); \
	VMOVUPD    Y14, off(DI)(BX*2); \
	VMOVUPD    Y15, off(DI)(R9*1)

// func dense8x4AVX(y *float64, ys int, xt, w, b *float64, in int)
//
// y[r*ys+k] for r < 4, k < 8: b[k] + sum over i < in of
// w[k*in+i] * xt[i*4+r]. Lane r of accumulator k is neuron k of row r;
// the eight accumulators are transposed to rows at the end. in >= 1.
TEXT ·dense8x4AVX(SB), NOSPLIT, $0-48
	MOVQ         xt+16(FP), SI
	MOVQ         w+24(FP), R8
	MOVQ         b+32(FP), AX
	MOVQ         in+40(FP), CX
	SHLQ         $3, CX           // weight row stride in bytes
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	LEAQ         (R8)(CX*1), R9   // rows 1..7
	LEAQ         (R9)(CX*1), R10
	LEAQ         (R10)(CX*1), R11
	LEAQ         (R11)(CX*1), R12
	LEAQ         (R12)(CX*1), R13
	LEAQ         (R13)(CX*1), DX
	LEAQ         (DX)(CX*1), BX
	XORQ         AX, AX

d4inputs:
	VMOVUPD (SI), Y8
	NEURON(R8, Y0, Y9)
	NEURON(R9, Y1, Y10)
	NEURON(R10, Y2, Y11)
	NEURON(R11, Y3, Y12)
	NEURON(R12, Y4, Y13)
	NEURON(R13, Y5, Y14)
	NEURON(DX, Y6, Y15)
	NEURON(BX, Y7, Y9)
	ADDQ    $32, SI
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     d4inputs

	MOVQ y+0(FP), DI
	MOVQ ys+8(FP), BX
	SHLQ $3, BX                   // output row stride in bytes
	LEAQ (BX)(BX*2), R9
	STORE4x4(Y0, Y1, Y2, Y3, 0)
	STORE4x4(Y4, Y5, Y6, Y7, 32)
	VZEROUPPER
	RET

// The backward primitives of kernels_bwd.go. As above, a lane is one
// output — here a dx or dw element — and runs that element's own chain.

// func conv3BwdTileAVX(dx, dy, w *float64, cin, cout, l, lout int)
//
// dx[c*l+p] for c < 2, p < 8: +0 plus, over o < cout and then j < 3,
// w[o*cin*3+c*3+j] * g[o*lout+p+2-j]. TAP's roles swap: the eight
// "inputs" are output gradients, read at descending offsets as the tap
// ascends, and the two weight pointers are two input channels.
TEXT ·conv3BwdTileAVX(SB), NOSPLIT, $0-56
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   w+16(FP), R8
	MOVQ   cin+24(FP), R10
	LEAQ   (R10)(R10*2), R10
	SHLQ   $3, R10                // weight stride per output channel in bytes
	MOVQ   cout+32(FP), CX
	MOVQ   l+40(FP), BX
	SHLQ   $3, BX                 // dx row stride in bytes
	MOVQ   lout+48(FP), R11
	SHLQ   $3, R11                // g row stride in bytes
	LEAQ   24(R8), R9             // the second channel's weights
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

bwdout:
	TAP(16, 0)
	TAP(8, 8)
	TAP(0, 16)
	ADDQ R11, DX
	ADDQ R10, R8
	ADDQ R10, R9
	DECQ CX
	JNZ  bwdout

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(BX*1)
	VMOVUPD Y3, 32(DI)(BX*1)
	VZEROUPPER
	RET

// One tap for four input channels: four output gradients at go(DX) times
// the tap's weight in each channel, added to Y0..Y3.
#define TAP4(go, wo) \
	VMOVUPD      go(DX), Y4;    \
	VBROADCASTSD wo(R8), Y5;    \
	VBROADCASTSD wo+24(R8), Y6; \
	VBROADCASTSD wo+48(R8), Y7; \
	VBROADCASTSD wo+72(R8), Y8; \
	VMULPD       Y4, Y5, Y5;    \
	VMULPD       Y4, Y6, Y6;    \
	VMULPD       Y4, Y7, Y7;    \
	VMULPD       Y4, Y8, Y8;    \
	VADDPD       Y5, Y0, Y0;    \
	VADDPD       Y6, Y1, Y1;    \
	VADDPD       Y7, Y2, Y2;    \
	VADDPD       Y8, Y3, Y3

// func conv3BwdTile4AVX(dx, dy, w *float64, cin, cout, l, lout int)
//
// conv3BwdTileAVX's sum for c < 4, p < 4.
TEXT ·conv3BwdTile4AVX(SB), NOSPLIT, $0-56
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   w+16(FP), R8
	MOVQ   cin+24(FP), R10
	LEAQ   (R10)(R10*2), R10
	SHLQ   $3, R10
	MOVQ   cout+32(FP), CX
	MOVQ   l+40(FP), BX
	SHLQ   $3, BX
	MOVQ   lout+48(FP), R11
	SHLQ   $3, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

bwdout4:
	TAP4(16, 0)
	TAP4(8, 8)
	TAP4(0, 16)
	ADDQ R11, DX
	ADDQ R10, R8
	DECQ CX
	JNZ  bwdout4

	LEAQ    (BX)(BX*2), R9
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (DI)(BX*2)
	VMOVUPD Y3, (DI)(R9*1)
	VZEROUPPER
	RET

// One row of convDw2AVX's sixteen lanes in both channels: the columns
// Y8..Y11 times the broadcast gradients Y12 (channel 0) and Y13 (channel
// 1), added to Y0..Y3 and Y4..Y7.
#define DW2ROW \
	VMULPD Y8, Y12, Y15;  \
	VADDPD Y15, Y0, Y0;   \
	VMULPD Y9, Y12, Y15;  \
	VADDPD Y15, Y1, Y1;   \
	VMULPD Y10, Y12, Y15; \
	VADDPD Y15, Y2, Y2;   \
	VMULPD Y11, Y12, Y15; \
	VADDPD Y15, Y3, Y3;   \
	VMULPD Y8, Y13, Y15;  \
	VADDPD Y15, Y4, Y4;   \
	VMULPD Y9, Y13, Y15;  \
	VADDPD Y15, Y5, Y5;   \
	VMULPD Y10, Y13, Y15; \
	VADDPD Y15, Y6, Y6;   \
	VMULPD Y11, Y13, Y15; \
	VADDPD Y15, Y7, Y7

// DW2ROW with every product ANDed first with the mask lanes at m0..m3.
#define DW2MASKED(m0, m1, m2, m3) \
	VMULPD Y8, Y12, Y15;  \
	VANDPD m0, Y15, Y15;  \
	VADDPD Y15, Y0, Y0;   \
	VMULPD Y9, Y12, Y15;  \
	VANDPD m1, Y15, Y15;  \
	VADDPD Y15, Y1, Y1;   \
	VMULPD Y10, Y12, Y15; \
	VANDPD m2, Y15, Y15;  \
	VADDPD Y15, Y2, Y2;   \
	VMULPD Y11, Y12, Y15; \
	VANDPD m3, Y15, Y15;  \
	VADDPD Y15, Y3, Y3;   \
	VMULPD Y8, Y13, Y15;  \
	VANDPD m0, Y15, Y15;  \
	VADDPD Y15, Y4, Y4;   \
	VMULPD Y9, Y13, Y15;  \
	VANDPD m1, Y15, Y15;  \
	VADDPD Y15, Y5, Y5;   \
	VMULPD Y10, Y13, Y15; \
	VANDPD m2, Y15, Y15;  \
	VADDPD Y15, Y6, Y6;   \
	VMULPD Y11, Y13, Y15; \
	VANDPD m3, Y15, Y15;  \
	VADDPD Y15, Y7, Y7

// Loads row R10 of the columns into Y8..Y11 and the two channels'
// gradients at byte offset off into Y12 and Y13.
#define DW2LOAD(off) \
	VMOVUPD      (R10), Y8;       \
	VMOVUPD      32(R10), Y9;     \
	VMOVUPD      64(R10), Y10;    \
	VMOVUPD      96(R10), Y11;    \
	VBROADCASTSD (SI)(off*1), Y12; \
	VBROADCASTSD (R12)(off*1), Y13

// func convDw2AVX(gw, dy, cols *float64, mask *uint64, n, s int)
//
// convDwGo for two output channels at once, over all s lanes, the two
// sharing every load of cols: channel c's gradient row is dy[c*n ..
// c*n+n) and its weight gradient gw[c*s .. c*s+s). Sixteen lanes at a
// time (eight accumulators), then four, then one.
TEXT ·convDw2AVX(SB), NOSPLIT, $0-48
	MOVQ   gw+0(FP), DI
	MOVQ   dy+8(FP), SI
	MOVQ   cols+16(FP), DX
	MOVQ   mask+24(FP), R8
	MOVQ   n+32(FP), AX
	LEAQ   (SI)(AX*8), R12        // channel 1's gradients
	DECQ   AX
	SHLQ   $3, AX                 // byte offset of g[n-1]
	MOVQ   s+40(FP), BX
	SHLQ   $3, BX                 // row stride and channel stride in bytes
	MOVQ   s+40(FP), R9          // lanes left
	XORQ   R13, R13

dw2x16:
	CMPQ   R9, $16
	JLT    dw2x4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DX, R10
	DW2LOAD(R13)
	DW2MASKED((R8), 32(R8), 64(R8), 96(R8))
	ADDQ   BX, R10
	MOVQ   $8, R11

dw2x16rows:
	CMPQ R11, AX
	JGE  dw2x16last
	DW2LOAD(R11)
	DW2ROW
	ADDQ BX, R10
	ADDQ $8, R11
	JMP  dw2x16rows

dw2x16last:
	DW2LOAD(AX)
	DW2MASKED((R8)(BX*1), 32(R8)(BX*1), 64(R8)(BX*1), 96(R8)(BX*1))
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VADDPD  (DI)(BX*1), Y4, Y4
	VADDPD  32(DI)(BX*1), Y5, Y5
	VADDPD  64(DI)(BX*1), Y6, Y6
	VADDPD  96(DI)(BX*1), Y7, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(BX*1)
	VMOVUPD Y5, 32(DI)(BX*1)
	VMOVUPD Y6, 64(DI)(BX*1)
	VMOVUPD Y7, 96(DI)(BX*1)
	ADDQ    $128, DI
	ADDQ    $128, DX
	ADDQ    $128, R8
	SUBQ    $16, R9
	JMP     dw2x16

dw2x4:
	CMPQ         R9, $4
	JLT          dw2x1
	VXORPD       Y0, Y0, Y0
	VXORPD       Y4, Y4, Y4
	VMOVUPD      (DX), Y8
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (R12), Y13
	VMULPD       Y8, Y12, Y15
	VANDPD       (R8), Y15, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y8, Y13, Y15
	VANDPD       (R8), Y15, Y15
	VADDPD       Y15, Y4, Y4
	LEAQ         (DX)(BX*1), R10
	MOVQ         $8, R11

dw2x4rows:
	CMPQ         R11, AX
	JGE          dw2x4last
	VMOVUPD      (R10), Y8
	VBROADCASTSD (SI)(R11*1), Y12
	VBROADCASTSD (R12)(R11*1), Y13
	VMULPD       Y8, Y12, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y8, Y13, Y15
	VADDPD       Y15, Y4, Y4
	ADDQ         BX, R10
	ADDQ         $8, R11
	JMP          dw2x4rows

dw2x4last:
	VMOVUPD      (R10), Y8
	VBROADCASTSD (SI)(AX*1), Y12
	VBROADCASTSD (R12)(AX*1), Y13
	VMULPD       Y8, Y12, Y15
	VANDPD       (R8)(BX*1), Y15, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y8, Y13, Y15
	VANDPD       (R8)(BX*1), Y15, Y15
	VADDPD       Y15, Y4, Y4
	VADDPD       (DI), Y0, Y0
	VADDPD       (DI)(BX*1), Y4, Y4
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y4, (DI)(BX*1)
	ADDQ         $32, DI
	ADDQ         $32, DX
	ADDQ         $32, R8
	SUBQ         $4, R9
	JMP          dw2x4

// The last lanes one at a time, in the low half of X registers. A mask
// is loaded with VMOVSD, which reads only its own lane.
dw2x1:
	TESTQ  R9, R9
	JZ     dw2done
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	VMOVSD (DX), X8
	VMOVSD (SI), X12
	VMOVSD (R12), X13
	VMOVSD (R8), X14
	VMULSD X8, X12, X15
	VANDPD X14, X15, X15
	VADDSD X15, X0, X0
	VMULSD X8, X13, X15
	VANDPD X14, X15, X15
	VADDSD X15, X4, X4
	LEAQ   (DX)(BX*1), R10
	MOVQ   $8, R11

dw2x1rows:
	CMPQ   R11, AX
	JGE    dw2x1last
	VMOVSD (R10), X8
	VMOVSD (SI)(R11*1), X12
	VMOVSD (R12)(R11*1), X13
	VMULSD X8, X12, X15
	VADDSD X15, X0, X0
	VMULSD X8, X13, X15
	VADDSD X15, X4, X4
	ADDQ   BX, R10
	ADDQ   $8, R11
	JMP    dw2x1rows

dw2x1last:
	VMOVSD (R10), X8
	VMOVSD (SI)(AX*1), X12
	VMOVSD (R12)(AX*1), X13
	VMOVSD (R8)(BX*1), X14
	VMULSD X8, X12, X15
	VANDPD X14, X15, X15
	VADDSD X15, X0, X0
	VMULSD X8, X13, X15
	VANDPD X14, X15, X15
	VADDSD X15, X4, X4
	VADDSD (DI), X0, X0
	VADDSD (DI)(BX*1), X4, X4
	VMOVSD X0, (DI)
	VMOVSD X4, (DI)(BX*1)
	ADDQ   $8, DI
	ADDQ   $8, DX
	ADDQ   $8, R8
	DECQ   R9
	JMP    dw2x1

dw2done:
	VZEROUPPER
	RET

// func axpyAVX(y, x *float64, a float64, n int)
//
// y[i] += x[i] * a for i < n, a multiple of 4. Sixteen at a time, then
// four.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX

axpy16:
	LEAQ    128(AX), DX
	CMPQ    DX, CX
	JGT     axpy4
	VMULPD  (SI)(AX*1), Y0, Y1
	VMULPD  32(SI)(AX*1), Y0, Y2
	VMULPD  64(SI)(AX*1), Y0, Y3
	VMULPD  96(SI)(AX*1), Y0, Y4
	VADDPD  (DI)(AX*1), Y1, Y1
	VADDPD  32(DI)(AX*1), Y2, Y2
	VADDPD  64(DI)(AX*1), Y3, Y3
	VADDPD  96(DI)(AX*1), Y4, Y4
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, 32(DI)(AX*1)
	VMOVUPD Y3, 64(DI)(AX*1)
	VMOVUPD Y4, 96(DI)(AX*1)
	MOVQ    DX, AX
	JMP     axpy16

axpy4:
	CMPQ    AX, CX
	JGE     axpydone
	VMULPD  (SI)(AX*1), Y0, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     axpy4

axpydone:
	VZEROUPPER
	RET

// func axpyListAVX(y, x *float64, offs *int, a *float64, k, n int)
//
// For e < n (a multiple of 4): y[e] += x[offs[j]+e] * a[j] for j < k
// ascending (k >= 1). A tile of sixteen y elements, then of four, stays
// in registers while the k rows are added to it.
TEXT ·axpyListAVX(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ offs+16(FP), R8
	MOVQ a+24(FP), R9
	MOVQ k+32(FP), R10
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	XORQ AX, AX                   // byte offset of the tile

gw16:
	LEAQ    128(AX), DX
	CMPQ    DX, CX
	JGT     gw4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	XORQ    R11, R11

gw16rows:
	MOVQ         (R8)(R11*8), R12
	LEAQ         (SI)(R12*8), R12
	ADDQ         AX, R12          // &x[offs[j]+e]
	VBROADCASTSD (R9)(R11*8), Y15
	VMULPD       (R12), Y15, Y4
	VMULPD       32(R12), Y15, Y5
	VMULPD       64(R12), Y15, Y6
	VMULPD       96(R12), Y15, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	INCQ         R11
	CMPQ         R11, R10
	JLT          gw16rows

	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	MOVQ    DX, AX
	JMP     gw16

gw4:
	CMPQ    AX, CX
	JGE     gwdone
	VMOVUPD (DI)(AX*1), Y0
	XORQ    R11, R11

gw4rows:
	MOVQ         (R8)(R11*8), R12
	LEAQ         (SI)(R12*8), R12
	VBROADCASTSD (R9)(R11*8), Y15
	VMULPD       (R12)(AX*1), Y15, Y4
	VADDPD       Y4, Y0, Y0
	INCQ         R11
	CMPQ         R11, R10
	JLT          gw4rows

	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     gw4

gwdone:
	VZEROUPPER
	RET

// func adamAVX(w, gr, m, v *float64, n int, k *adamConsts)
//
// adamGo's step for j < n (a multiple of 4), a lane per element and every
// operation in adamGo's order: no FMA, VSQRTPD and VDIVPD round exactly
// as math.Sqrt and / do.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         gr+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	VBROADCASTSD (AX), Y8         // inv
	VBROADCASTSD 8(AX), Y9        // b1
	VBROADCASTSD 16(AX), Y10      // 1-b1
	VBROADCASTSD 24(AX), Y11      // b2
	VBROADCASTSD 32(AX), Y12      // 1-b2
	VBROADCASTSD 40(AX), Y13      // lr
	VBROADCASTSD 48(AX), Y14      // c1
	VBROADCASTSD 56(AX), Y15      // c2
	VBROADCASTSD 64(AX), Y7       // eps
	SHLQ         $3, CX
	XORQ         BX, BX

adam4:
	CMPQ    BX, CX
	JGE     adamdone
	VMULPD  (SI)(BX*1), Y8, Y0    // g
	VMULPD  (DX)(BX*1), Y9, Y1    // b1*m
	VMULPD  Y0, Y10, Y2           // (1-b1)*g
	VADDPD  Y2, Y1, Y1            // m
	VMOVUPD Y1, (DX)(BX*1)
	VMULPD  (R8)(BX*1), Y11, Y3   // b2*v
	VMULPD  Y0, Y12, Y4           // (1-b2)*g
	VMULPD  Y0, Y4, Y4            // ((1-b2)*g)*g
	VADDPD  Y4, Y3, Y3            // v
	VMOVUPD Y3, (R8)(BX*1)
	VDIVPD  Y14, Y1, Y1           // m/c1
	VMULPD  Y1, Y13, Y1           // lr*(m/c1)
	VDIVPD  Y15, Y3, Y3           // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y7, Y3, Y3            // sqrt(v/c2)+eps
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*1), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     adam4

adamdone:
	VZEROUPPER
	RET

// Stores the four lanes of acc (accx its low half) to base, base+BX, base+2*BX and base+R9
// (R9 = 3*BX): one input position in four channel rows.
#define SCATTER4(acc, accx, base) \
	VMOVSD       accx, (base);             \
	VMOVHPD      accx, (base)(BX*1);       \
	VEXTRACTF128 $1, acc, X15;             \
	VMOVSD       X15, (base)(BX*2);        \
	VMOVHPD      X15, (base)(R9*1)

// func conv3BwdEdgesAVX(dx, dy, w *float64, cin, cout, l, lout, pad int)
//
// The input gradient of 4 channels of a k=3 layer at the inputs that see
// fewer than three taps — u = 0, 1, lout, lout+1 when pad is 0 (lout >= 3),
// u = 0, l-1 when it is 1 (l >= 3) — with a lane per channel. The twelve
// weights of one output channel, w[o*cin*3 .. +12], are transposed in
// registers into T0..T2 (Y7..Y9), tap j of the four channels each; the
// output gradients are broadcast.
TEXT ·conv3BwdEdgesAVX(SB), NOSPLIT, $0-64
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   w+16(FP), R8
	MOVQ   cin+24(FP), R10
	LEAQ   (R10)(R10*2), R10
	SHLQ   $3, R10
	MOVQ   cout+32(FP), CX
	MOVQ   l+40(FP), BX
	SHLQ   $3, BX
	MOVQ   lout+48(FP), R11
	SHLQ   $3, R11
	LEAQ   -8(R11), R12           // byte offset of g[lout-1]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   pad+56(FP), AX
	TESTQ  AX, AX
	JNZ    edgesame

edgevalid:
	VMOVUPD      (R8), X4
	VINSERTF128  $1, 48(R8), Y4, Y4 // a0 a1 a6 a7
	VMOVUPD      16(R8), X5
	VINSERTF128  $1, 64(R8), Y5, Y5 // a2 a3 a8 a9
	VMOVUPD      32(R8), X6
	VINSERTF128  $1, 80(R8), Y6, Y6 // a4 a5 a10 a11
	VBLENDPD     $10, Y5, Y4, Y7    // tap 0: a0 a3 a6 a9
	VSHUFPD      $5, Y6, Y4, Y8     // tap 1: a1 a4 a7 a10
	VBLENDPD     $10, Y6, Y5, Y9    // tap 2: a2 a5 a8 a11
	VBROADCASTSD (DX), Y10          // g[0]
	VBROADCASTSD 8(DX), Y11         // g[1]
	VBROADCASTSD -8(DX)(R12*1), Y12 // g[lout-2]
	VBROADCASTSD (DX)(R12*1), Y13   // g[lout-1]
	VMULPD       Y10, Y7, Y4        // u = 0: tap 0, t = 0
	VADDPD       Y4, Y0, Y0
	VMULPD       Y11, Y7, Y5        // u = 1: tap 0, t = 1; tap 1, t = 0
	VADDPD       Y5, Y1, Y1
	VMULPD       Y10, Y8, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       Y13, Y8, Y4        // u = lout: tap 1, t = lout-1; tap 2, t = lout-2
	VADDPD       Y4, Y2, Y2
	VMULPD       Y12, Y9, Y5
	VADDPD       Y5, Y2, Y2
	VMULPD       Y13, Y9, Y6        // u = lout+1: tap 2, t = lout-1
	VADDPD       Y6, Y3, Y3
	ADDQ         R11, DX
	ADDQ         R10, R8
	DECQ         CX
	JNZ          edgevalid

	LEAQ         (BX)(BX*2), R9
	SCATTER4(Y0, X0, DI)
	LEAQ         8(DI), SI
	SCATTER4(Y1, X1, SI)
	LEAQ         8(DI)(R12*1), SI
	SCATTER4(Y2, X2, SI)
	LEAQ         16(DI)(R12*1), SI
	SCATTER4(Y3, X3, SI)
	VZEROUPPER
	RET

edgesame:
	VMOVUPD      (R8), X4
	VINSERTF128  $1, 48(R8), Y4, Y4
	VMOVUPD      16(R8), X5
	VINSERTF128  $1, 64(R8), Y5, Y5
	VMOVUPD      32(R8), X6
	VINSERTF128  $1, 80(R8), Y6, Y6
	VBLENDPD     $10, Y5, Y4, Y7
	VSHUFPD      $5, Y6, Y4, Y8
	VBLENDPD     $10, Y6, Y5, Y9
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VBROADCASTSD -8(DX)(R12*1), Y12
	VBROADCASTSD (DX)(R12*1), Y13
	VMULPD       Y11, Y7, Y4        // u = 0: tap 0, t = 1; tap 1, t = 0
	VADDPD       Y4, Y0, Y0
	VMULPD       Y10, Y8, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       Y13, Y8, Y6        // u = l-1: tap 1, t = l-1; tap 2, t = l-2
	VADDPD       Y6, Y1, Y1
	VMULPD       Y12, Y9, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         R11, DX
	ADDQ         R10, R8
	DECQ         CX
	JNZ          edgesame

	LEAQ         (BX)(BX*2), R9
	SCATTER4(Y0, X0, DI)
	LEAQ         (DI)(R12*1), SI
	SCATTER4(Y1, X1, SI)
	VZEROUPPER
	RET

// Gathers tap off/8 of one input channel for four output channels, whose
// weight rows start at R8, R9, R10 and R11, into y (x its low half); t is
// scratch.
#define TAPS4(off, y, x, t) \
	VMOVSD      off(R8), x;      \
	VMOVHPD     off(R9), x, x;   \
	VMOVSD      off(R10), t;     \
	VMOVHPD     off(R11), t, t;  \
	VINSERTF128 $1, t, y, y

// func conv3EdgesAVX(y, x, w, b *float64, cin, l int)
//
// The first and last output of four channels of a k=3 "same" row, a lane
// per channel: y[q*l] = b[q] + sum over ci of w[q][ci][1] * x[ci][0] +
// w[q][ci][2] * x[ci][1], and y[q*l+l-1] = b[q] + sum over ci of
// w[q][ci][0] * x[ci][l-2] + w[q][ci][1] * x[ci][l-1], for q < 4, each
// term added in that order. l >= 2.
TEXT ·conv3EdgesAVX(SB), NOSPLIT, $0-48
	MOVQ    y+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    w+16(FP), R8
	MOVQ    b+24(FP), AX
	MOVQ    cin+32(FP), CX
	MOVQ    l+40(FP), BX
	SHLQ    $3, BX                 // row stride in bytes, of y and of x
	LEAQ    (CX)(CX*2), R12
	SHLQ    $3, R12                // weight stride per output channel in bytes
	LEAQ    (R8)(R12*1), R9
	LEAQ    (R9)(R12*1), R10
	LEAQ    (R10)(R12*1), R11
	LEAQ    -16(BX), R13           // byte offset of x[ci][l-2] in a row
	VMOVUPD (AX), Y0               // first outputs
	VMOVUPD Y0, Y1                 // last outputs

edgefwd:
	TAPS4(0, Y4, X4, X7)
	TAPS4(8, Y5, X5, X7)
	TAPS4(16, Y6, X6, X7)
	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD (SI)(R13*1), Y10
	VBROADCASTSD 8(SI)(R13*1), Y11
	VMULPD       Y8, Y5, Y12       // t = 0: tap 1 * x[0], then tap 2 * x[1]
	VADDPD       Y12, Y0, Y0
	VMULPD       Y9, Y6, Y13
	VADDPD       Y13, Y0, Y0
	VMULPD       Y10, Y4, Y14      // t = l-1: tap 0 * x[l-2], then tap 1 * x[l-1]
	VADDPD       Y14, Y1, Y1
	VMULPD       Y11, Y5, Y15
	VADDPD       Y15, Y1, Y1
	ADDQ         $24, R8
	ADDQ         $24, R9
	ADDQ         $24, R10
	ADDQ         $24, R11
	ADDQ         BX, SI
	DECQ         CX
	JNZ          edgefwd

	LEAQ (BX)(BX*2), R9
	SCATTER4(Y0, X0, DI)
	LEAQ -8(DI)(BX*1), SI
	SCATTER4(Y1, X1, SI)
	VZEROUPPER
	RET

// The elementwise primitives of kernels.go. A lane is one output, and each
// takes any n: four lanes at a time, then one.

// func reluAVX(y, x *float64, n int)
//
// y[i] = x[i] > 0 ? x[i] : +0 for i < n. VMAXPD returns its second source
// unless the first is greater, so with x first a NaN or a -0 gives +0.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   y+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

relu4:
	LEAQ    32(AX), DX
	CMPQ    DX, CX
	JGT     relu1
	VMOVUPD (SI)(AX*1), Y1
	VMAXPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	MOVQ    DX, AX
	JMP     relu4

relu1:
	CMPQ   AX, CX
	JGE    reludone
	VMOVSD (SI)(AX*1), X1
	VMAXSD X0, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    relu1

reludone:
	VZEROUPPER
	RET

// func reluBwdAVX(dx, dy, x *float64, n int)
//
// dx[i] = x[i] > 0 ? g[i] : +0 for i < n: g ANDed with the ordered
// compare x > 0 (predicate GT_OQ, false on a NaN).
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   x+16(FP), SI
	MOVQ   n+24(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

rbwd4:
	LEAQ    32(AX), R8
	CMPQ    R8, CX
	JGT     rbwd1
	VMOVUPD (SI)(AX*1), Y1
	VCMPPD  $0x1e, Y0, Y1, Y1
	VANDPD  (DX)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	MOVQ    R8, AX
	JMP     rbwd4

rbwd1:
	CMPQ   AX, CX
	JGE    rbwddone
	VMOVSD (SI)(AX*1), X1
	VCMPSD $0x1e, X0, X1, X1
	VMOVSD (DX)(AX*1), X2
	VANDPD X2, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    rbwd1

rbwddone:
	VZEROUPPER
	RET

// Splits the eight inputs at SI into the even-indexed ones (into Y3) and
// the odd-indexed ones (into Y4) of four outputs, in output order: a
// 128-bit load and insert put inputs 0 1 | 4 5 in Y1 and 2 3 | 6 7 in Y2,
// and the unpacks take the lows and the highs.
#define PAIRS4 \
	VMOVUPD     (SI), X1;           \
	VINSERTF128 $1, 32(SI), Y1, Y1; \
	VMOVUPD     16(SI), X2;         \
	VINSERTF128 $1, 48(SI), Y2, Y2; \
	VUNPCKLPD   Y2, Y1, Y3;         \
	VUNPCKHPD   Y2, Y1, Y4

// func pool2AVX(y, x *float64, n int)
//
// y[t] = x[2t+1] > x[2t] ? x[2t+1] : x[2t] for t < n: VMAXPD with the odd
// input first, so a tie or a NaN keeps the even one.
TEXT ·pool2AVX(SB), NOSPLIT, $0-24
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

poolquad:
	CMPQ    CX, $4
	JLT     poolone
	PAIRS4
	VMAXPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     poolquad

poolone:
	TESTQ  CX, CX
	JZ     pooldone
	VMOVSD (SI), X3
	VMOVSD 8(SI), X4
	VMAXSD X3, X4, X4
	VMOVSD X4, (DI)
	ADDQ   $16, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    poolone

pooldone:
	VZEROUPPER
	RET

// func pool2BwdAVX(dx, dy, x *float64, n int)
//
// For t < n, the slot of dx[2t], dx[2t+1] that pool2 selects gets +0 +
// g[t] and the other +0. The mask is pool2's compare, odd > even (GT_OQ:
// false on a tie or a NaN); the even and the odd slots are interleaved
// back with unpacks and a swap of 128-bit halves.
TEXT ·pool2BwdAVX(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   x+16(FP), SI
	MOVQ   n+24(FP), CX
	VXORPD Y0, Y0, Y0

pbwd4:
	CMPQ       CX, $4
	JLT        pbwd1
	PAIRS4
	VCMPPD     $0x1e, Y3, Y4, Y5
	VADDPD     (DX), Y0, Y6
	VANDNPD    Y6, Y5, Y7            // even slots
	VANDPD     Y6, Y5, Y8            // odd slots
	VUNPCKLPD  Y8, Y7, Y9            // dx 0 1 | 4 5
	VUNPCKHPD  Y8, Y7, Y10           // dx 2 3 | 6 7
	VPERM2F128 $0x20, Y10, Y9, Y11
	VPERM2F128 $0x31, Y10, Y9, Y12
	VMOVUPD    Y11, (DI)
	VMOVUPD    Y12, 32(DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        pbwd4

pbwd1:
	TESTQ   CX, CX
	JZ      pbwddone
	VMOVSD  (SI), X3
	VMOVSD  8(SI), X4
	VCMPSD  $0x1e, X3, X4, X5
	VMOVSD  (DX), X6
	VADDSD  X0, X6, X6
	VANDNPD X6, X5, X7
	VANDPD  X6, X5, X8
	VMOVSD  X7, (DI)
	VMOVSD  X8, 8(DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	ADDQ    $8, DX
	DECQ    CX
	JMP     pbwd1

pbwddone:
	VZEROUPPER
	RET
