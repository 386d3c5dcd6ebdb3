package nn

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
// Two primitives do nearly all of the paper network's arithmetic:
//
//   - conv3Tile: a k=3 convolution tile, 2 output channels x 8 output
//     positions, input channels innermost.
//   - dense8: 8 consecutive output neurons, inputs innermost.
//
// Each has two implementations of that contract: Go assembly on amd64
// with AVX (kernels_amd64.s; a lane is one output), and the portable Go
// twins below, which are also what the assembly is tested against. The
// per-row driver (Conv1D.fwdWS, Dense.fwdWS: serving at batch 1,
// TrainStep, LossGrad, Jacobian) and the batch driver (forwardBatch) run
// on the same two functions, Conv1D.fwdRow and Dense.fwdRows; what the
// primitives do not cover — a kernel size other than 3, an odd last
// channel, a row shorter than one tile, the two edge outputs of "same"
// padding, a dense layer that is not a multiple of 4 wide or 8 tall — is
// plain Go under the same contract.

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
			if c.same {
				conv3Edges(y0, y1, x, w0, w1, b0, b1, c.cin, l)
			}
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

// conv3Edges computes the first and last output of two channels of a k=3
// "same" convolution, four chains at once: t = 0 sees taps 1 and 2 (tap 0
// would read x[-1]), t = l-1 sees taps 0 and 1.
func conv3Edges(y0, y1, x, w0, w1 []float64, b0, b1 float64, cin, l int) {
	f0, e0, f1, e1 := b0, b0, b1, b1
	for ci := 0; ci < cin; ci++ {
		xr := x[ci*l : ci*l+l]
		xa, xb, xc, xd := xr[0], xr[1], xr[l-2], xr[l-1]
		u := w0[ci*3 : ci*3+3]
		v := w1[ci*3 : ci*3+3]
		f0 += u[1] * xa
		f0 += u[2] * xb
		e0 += u[0] * xc
		e0 += u[1] * xd
		f1 += v[1] * xa
		f1 += v[2] * xb
		e1 += v[0] * xc
		e1 += v[1] * xd
	}
	y0[0], y0[l-1], y1[0], y1[l-1] = f0, e0, f1, e1
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
// and its outputs at out[r*outSize:]. Each block of eight neurons visits
// every row before the next block starts, so its eight weight rows are
// read from memory once per batch.
func (d *Dense) fwdRows(in, out []float64, rows, inSize, outSize int) {
	o := 0
	if d.in%4 == 0 {
		for ; o+8 <= d.out; o += 8 {
			w := d.w.W[o*d.in : (o+8)*d.in]
			b := d.b.W[o : o+8]
			for r := 0; r < rows; r++ {
				dense8(out[r*outSize+o:r*outSize+o+8], in[r*inSize:r*inSize+d.in], w, b)
			}
		}
	}
	if o < d.out {
		w, b := d.w.W[o*d.in:], d.b.W[o:d.out]
		for r := 0; r < rows; r++ {
			denseGo(out[r*outSize+o:r*outSize+d.out], in[r*inSize:r*inSize+d.in], w, b)
		}
	}
}

// denseGo computes y[o] = b[o] + the sum over i of w[o*len(x)+i] * x[i]
// for every o < len(y), four chains at a time. It is the portable dense8
// and the remainder path of every dense layer.
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
