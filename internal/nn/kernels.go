package nn

import "math"

// Forward kernels. There is one contract, the test oracle's
// (oracle_test.go): every output element is its bias followed by one
// separately rounded multiply and one separately rounded add per term,
// terms in ascending (input channel, tap) order for a convolution and
// ascending input index for a dense layer. Outputs do not depend on each
// other, so a kernel may compute as many of them side by side as it
// likes — in registers, in vector lanes — and stay bit-identical to the
// oracle as long as each one keeps its own chain. A chain is never
// split, reassociated or fused.
//
// Three primitives do nearly all of the paper network's arithmetic:
//
//   - conv3Tile: a k=3 convolution tile, 2 output channels x 8 output
//     positions, input channels innermost.
//   - dense8x4: 8 consecutive output neurons for a group of 4 rows, a
//     lane per row, reading the group's inputs transposed (transpose4),
//     so each weight is broadcast once for four rows and needs no
//     transpose of its own.
//   - axpyList (kernels_bwd.go) on a dense layer's pack: a lone row,
//     every output a lane, adding one input's weights to all of them at
//     once from the input-major copy of the weights (densePack), for the
//     inputs that are not zero only.
//
// Each has two implementations of that contract: Go assembly on amd64
// with AVX (kernels_amd64.s; a lane is one output), and the portable Go
// twins, which are also what the assembly is tested against. Every
// forward pass — serving at every batch size, the attack queries and
// every training step — runs them through forwardRows and the two
// functions it calls, Conv1D.fwdRow and Dense.fwdRows; what the
// primitives do not cover — a kernel size other than 3, an odd last
// channel, a row shorter than one tile, the neurons of a dense layer
// past its last multiple of 8 in a group of rows — is plain Go under the
// same contract, and so are the two edge outputs of "same" padding
// (conv3Edges) where the platform has no assembly for them.

// fwdRow computes the layer for one input x (cin x l) into y (cout x
// lout).
func (c *Conv1D) fwdRow(x, y []float64, l, lout int) {
	pad := c.pad()
	// The interior is every output whose three taps are all in range:
	// all of a "valid" row, all but the first and last of a "same" row.
	lo, hi := pad, lout-pad
	o := 0
	if c.k == 3 && hi-lo >= 8 {
		for ; o+2 <= c.cout; o += 2 {
			w0 := c.w.W[o*c.cin*3 : (o+1)*c.cin*3]
			w1 := c.w.W[(o+1)*c.cin*3 : (o+2)*c.cin*3]
			y0 := y[o*lout : (o+1)*lout]
			y1 := y[(o+1)*lout : (o+2)*lout]
			b0, b1 := c.b.W[o], c.b.W[o+1]
			// Tiles of 8 from lo; a ragged tail is one more tile ending
			// at hi, recomputing the outputs it shares with the tile
			// before it (21 outputs are tiles at 0, 8 and 13). A tile at
			// t reads x[ci*l+t-pad .. ci*l+t-pad+9], and t+8 <= hi keeps
			// that inside row ci for either padding.
			for t := lo; t < hi; t += 8 {
				if t+8 > hi {
					t = hi - 8
				}
				conv3Tile(y0[t:t+8], y1[t:t+8], x[t-pad:], w0, w1, b0, b1, c.cin, l)
			}
		}
		if c.same {
			conv3Edges(y[:o*lout], x, c.w.W, c.b.W, c.cin, l)
		}
	}
	for ; o < c.cout; o++ {
		convRow(y[o*lout:(o+1)*lout], x, c.w.W[o*c.cin*c.k:(o+1)*c.cin*c.k], c.b.W[o], c.cin, c.k, l, pad)
	}
}

// conv3TileGo is the portable conv3Tile: y0[t], y1[t] for t in [0,8) is
// b + the sum over ci < cin, j < 3 of w[ci*3+j] * x[ci*l+t+j].
func conv3TileGo(y0, y1, x, w0, w1 []float64, b0, b1 float64, cin, l int) {
	conv3Quad(y0[0:4], x, w0, b0, cin, l)
	conv3Quad(y0[4:8], x[4:], w0, b0, cin, l)
	conv3Quad(y1[0:4], x, w1, b1, cin, l)
	conv3Quad(y1[4:8], x[4:], w1, b1, cin, l)
}

// conv3Quad computes four consecutive outputs of one channel with the
// four chains in registers, so their add latencies overlap.
func conv3Quad(y, x, w []float64, bias float64, cin, l int) {
	v0, v1, v2, v3 := bias, bias, bias, bias
	for ci := 0; ci < cin; ci++ {
		w0, w1, w2 := w[ci*3], w[ci*3+1], w[ci*3+2]
		xr := x[ci*l : ci*l+6]
		v0 += w0 * xr[0]
		v0 += w1 * xr[1]
		v0 += w2 * xr[2]
		v1 += w0 * xr[1]
		v1 += w1 * xr[2]
		v1 += w2 * xr[3]
		v2 += w0 * xr[2]
		v2 += w1 * xr[3]
		v2 += w2 * xr[4]
		v3 += w0 * xr[3]
		v3 += w1 * xr[4]
		v3 += w2 * xr[5]
	}
	y[0], y[1], y[2], y[3] = v0, v1, v2, v3
}

// conv3EdgesGo is the portable conv3Edges: the first and last output of
// every channel of a k=3 "same" convolution, y[o*l] and y[o*l+l-1] for
// o < len(y)/l, each its own chain: t = 0 sees taps 1 and 2 (tap 0 would
// read x[-1]), t = l-1 sees taps 0 and 1.
func conv3EdgesGo(y, x, w, b []float64, cin, l int) {
	for o := 0; o < len(y)/l; o++ {
		f, e := b[o], b[o]
		for ci := 0; ci < cin; ci++ {
			xr, u := x[ci*l:ci*l+l], w[(o*cin+ci)*3:(o*cin+ci)*3+3]
			f += u[1] * xr[0]
			f += u[2] * xr[1]
			e += u[0] * xr[l-2]
			e += u[1] * xr[l-1]
		}
		y[o*l], y[o*l+l-1] = f, e
	}
}

// convRow computes every output of one channel for any kernel size and
// either padding, one chain at a time: what the primitives leave over.
func convRow(y, x, w []float64, bias float64, cin, k, l, pad int) {
	for t := range y {
		// Taps j whose input t+j-pad exists.
		jlo, jhi := max(0, pad-t), min(k, l+pad-t)
		v := bias
		for ci := 0; ci < cin; ci++ {
			wr := w[ci*k : ci*k+k]
			xr := x[ci*l : ci*l+l]
			for j := jlo; j < jhi; j++ {
				v += wr[j] * xr[t+j-pad]
			}
		}
		y[t] = v
	}
}

// fwdRows computes the layer for rows inputs, input r at in[r*inSize:]
// and its outputs at out[r*outSize:], on the plan bp's scratch. Every
// full group of four rows is transposed into bp.xt and runs on dense8x4;
// each block of eight neurons visits every group before the next block
// starts, so its eight weight rows are read from memory once per batch.
// The rows left over, 1 to 3 of them, run one at a time on the pack
// (fwdPacked), as a batch of one does, or on denseGo in a layer narrower
// than 8 (the logits), where the pack's list costs more than it skips —
// except in a train plan, whose weights change every step: there they
// are one more group, padded with zero rows, whose outputs land in the
// arena rows past rows (a train plan's arenas hold a multiple of four).
func (d *Dense) fwdRows(bp *batchPlan, in, out []float64, rows, inSize, outSize int) {
	n4, o8 := rows&^3, d.out&^7
	if bp.kind == planTrain {
		n4 = (rows + 3) &^ 3
	}
	for g := 0; g < n4; g += 4 {
		transpose4(bp.xt[g*d.in:(g+4)*d.in], in[g*inSize:], inSize, min(rows-g, 4))
	}
	for o := 0; o < o8; o += 8 {
		w, b := d.w.W[o*d.in:(o+8)*d.in], d.b.W[o:o+8]
		for g := 0; g < n4; g += 4 {
			dense8x4(out[g*outSize+o:], outSize, bp.xt[g*d.in:(g+4)*d.in], w, b)
		}
	}
	for r := 0; r < rows; r++ {
		x, y := in[r*inSize:r*inSize+d.in], out[r*outSize:r*outSize+d.out]
		lo := o8 // the neurons the blocks of eight leave over
		if r >= n4 {
			if o8 > 0 {
				d.fwdPacked(y, x, bp.offs, bp.gs)
				continue
			}
			lo = 0
		}
		if lo < d.out {
			denseGo(y[lo:], x, d.w.W[lo*d.in:], d.b.W[lo:])
		}
	}
}

// fwdPacked computes one row, y = b + W x, on the layer's pack: offs and
// gs (scratch of at least d.in entries) list the inputs that are not
// zero — every input when the pack is not exact — and one axpyList adds
// their columns of the pack to y in ascending input order. Each output
// thus takes the oracle's terms in its order, less products of a zero
// input, which the pack's exactness makes additions of ±0 that change no
// bit.
func (d *Dense) fwdPacked(y, x []float64, offs []int, gs []float64) {
	wt, exact := d.w.pack.get(d.w.W, d.b.W, d.in, d.out)
	var all uint64
	if !exact {
		all = 1
	}
	// Whether an input is zero is a coin flip, so it is counted by
	// arithmetic, not by a branch: u is 0 for ±0 alone, and (u|-u)>>63
	// is 1 for every other u.
	k, off := 0, 0
	offs, gs = offs[:len(x)], gs[:len(x)]
	for _, v := range x {
		offs[k], gs[k] = off, v
		u := math.Float64bits(v) << 1
		k += int((u|-u)>>63 | all)
		off += d.out
	}
	copy(y, d.b.W)
	axpyList(y, wt, offs[:k], gs[:k])
}

// transpose4 writes k <= 4 rows of len(xt)/4 inputs, row r at
// x[r*stride:], input-major into xt: xt[i*4+r] = x[r*stride+i] for r < k,
// and 0 for the rows from k to 4.
func transpose4(xt, x []float64, stride, k int) {
	in := len(xt) / 4
	if k < 4 {
		clear(xt)
		for r := 0; r < k; r++ {
			for i, v := range x[r*stride : r*stride+in] {
				xt[i*4+r] = v
			}
		}
		return
	}
	r0, r1, r2, r3 := x[:in], x[stride:stride+in], x[2*stride:2*stride+in], x[3*stride:3*stride+in]
	for i := range r0 {
		q := xt[i*4 : i*4+4]
		q[0], q[1], q[2], q[3] = r0[i], r1[i], r2[i], r3[i]
	}
}

// dense8x4Go is the portable dense8x4: for r < 4 and k < 8,
// y[r*ys+k] = b[k] + the sum over i < in of w[k*in+i] * xt[i*4+r], where
// in = len(xt)/4: eight neurons of a group of four rows, each its own
// chain.
func dense8x4Go(y []float64, ys int, xt, w, b []float64) {
	in := len(xt) / 4
	for r := 0; r < 4; r++ {
		for k := 0; k < 8; k += 4 {
			r0, r1, r2, r3 := w[k*in:(k+1)*in], w[(k+1)*in:(k+2)*in], w[(k+2)*in:(k+3)*in], w[(k+3)*in:(k+4)*in]
			s0, s1, s2, s3 := b[k], b[k+1], b[k+2], b[k+3]
			for i := range r0 {
				xi := xt[i*4+r]
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			y[r*ys+k], y[r*ys+k+1], y[r*ys+k+2], y[r*ys+k+3] = s0, s1, s2, s3
		}
	}
}

// denseGo computes y[o] = b[o] + the sum over i of w[o*len(x)+i] * x[i]
// for every o < len(y), four chains at a time: the neurons of a group of
// rows that a block of eight leaves over (all of the 512 -> 2 logits
// layer).
func denseGo(y, x, w, b []float64) {
	in := len(x)
	o := 0
	for ; o+4 <= len(y); o += 4 {
		r0 := w[(o+0)*in : (o+1)*in]
		r1 := w[(o+1)*in : (o+2)*in]
		r2 := w[(o+2)*in : (o+3)*in]
		r3 := w[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < len(y); o++ {
		row := w[o*in : (o+1)*in]
		sum := b[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// Elementwise primitives. ReLU and a size-2 max-pool are one compare and
// one select per element, and a conv output's sign is a coin flip, so a
// select written as a branch mispredicts on about half of a row. Each of
// these selects by bit mask instead:
//
//   - relu: y[i] = x[i] > 0 ? x[i] : +0, so NaN and -0 become +0.
//   - reluBwd: dx[i] = x[i] > 0 ? g[i] : +0.
//   - pool2: y[t] = x[2t+1] > x[2t] ? x[2t+1] : x[2t], so a tie or a NaN
//     keeps the earlier element.
//   - pool2Bwd: the slot pool2 selects gets +0 + g[t] (the oracle clears
//     dx and adds, which turns a -0 gradient into +0), the other slot +0,
//     and so does every element of dx past x[2*len(g)-1].
//
// The backward pair reads the layer input x that the forward read and
// derives its mask from it with the forward's own comparison, so nothing
// is kept between the passes. On amd64 with AVX they are VMAXPD and
// VCMPPD/VANDPD in kernels_amd64.s, a lane per output; the Go twins below
// are the portable path and what the assembly is tested against.

// boolMask returns all ones for true and zero for false: the compiler
// makes it a conditional move, not a branch.
func boolMask(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
}

// reluGo is the portable relu, over len(y) elements.
func reluGo(y, x []float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] = math.Float64frombits(math.Float64bits(v) & boolMask(v > 0))
	}
}

// reluBwdGo is the portable reluBwd, over len(dx) elements.
func reluBwdGo(dx, g, x []float64) {
	g, x = g[:len(dx)], x[:len(dx)]
	for i, v := range x {
		dx[i] = math.Float64frombits(math.Float64bits(g[i]) & boolMask(v > 0))
	}
}

// pool2Go is the portable pool2: len(y) outputs from x[:2*len(y)].
func pool2Go(y, x []float64) {
	x = x[:2*len(y)]
	for t := range y {
		a, b := math.Float64bits(x[2*t]), math.Float64bits(x[2*t+1])
		m := boolMask(x[2*t+1] > x[2*t])
		y[t] = math.Float64frombits(b&m | a&^m)
	}
}

// pool2BwdGo is the portable pool2Bwd: dx[:2*len(g)] from g and x, and +0
// in the rest of dx.
func pool2BwdGo(dx, g, x []float64) {
	n := len(g)
	x = x[:2*n]
	for t, gt := range g {
		m := boolMask(x[2*t+1] > x[2*t])
		v := math.Float64bits(gt + 0) // -0 + 0 is +0, as in the oracle
		dx[2*t], dx[2*t+1] = math.Float64frombits(v&^m), math.Float64frombits(v&m)
	}
	clear(dx[2*n:])
}

// poolArgmax is a max-pool window of any size in the oracle's loop: the
// index of the first largest of x[base:base+size], where a later NaN
// never wins. Pools of size 2 run on pool2 and pool2Bwd instead.
func poolArgmax(x []float64, base, size int) int {
	best := base
	for j := base + 1; j < base+size; j++ {
		if x[j] > x[best] {
			best = j
		}
	}
	return best
}
