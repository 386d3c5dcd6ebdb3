package nn

// Workspace kernels: the per-layer fwdWS/bwdWS implementations. Each one
// computes exactly the same floating-point operations, in exactly the
// same order, as the allocating reference in the package's tests
// (oracle_test.go) — that is the invariant the bit-identity property
// tests enforce — but writes into preallocated workspace buffers and
// keeps all mutable state, the layer's input and output shapes included,
// in the wsState, never in the layer. The Conv1D and Dense passes run on
// the shared primitives of kernels.go (forward) and kernels_bwd.go
// (backward).

// ---------------------------------------------------------------------------
// Conv1D

func (c *Conv1D) fwdWS(s *wsState, x, y []float64, _ bool) {
	c.fwdRow(x, y, shapeCols(s.in), shapeCols(s.out))
}

func (c *Conv1D) bwdWS(s *wsState, x, g, dx []float64, accum bool) {
	l, lout := shapeCols(s.in), shapeCols(s.out)
	if accum {
		for o := 0; o < c.cout; o++ {
			var gSum float64
			for _, v := range g[o*lout : (o+1)*lout] {
				gSum += v
			}
			c.b.G[o] += gSum
		}
		if s.dwCols != nil && lout >= 2 {
			c.bwdDw(s, x, g, l, lout)
		} else {
			c.bwdDwRows(x, g, l, lout)
		}
	}
	c.bwdDx(dx, g, l, lout)
}

// bwdDx computes the input gradient. A k=3 layer's interior — every input
// all three of whose taps read an output in range: [2,lout) valid, [1,l-1)
// same — goes to the tiles in channel pairs (or quads, when it is shorter
// than a tile of 8) and the channels they leave over to conv3BwdQuad; the
// ends of every row go to conv3BwdEdges. Other kernel sizes, and rows
// whose interior is shorter than 4, run in the oracle's own loop order.
func (c *Conv1D) bwdDx(dx, g []float64, l, lout int) {
	pad := c.pad()
	lo, hi := 2-pad, lout-pad
	if c.k != 3 || hi-lo < 4 {
		c.bwdDxRows(dx, g, l, lout)
		return
	}
	w := c.w.W
	ci := 0
	// Tiles from lo; a ragged tail is one more tile ending at hi,
	// recomputing what it shares with the tile before it.
	if hi-lo >= 8 {
		for ; ci+2 <= c.cin; ci += 2 {
			for u := lo; u < hi; u += 8 {
				u = min(u, hi-8)
				conv3BwdTile(dx[ci*l+u:], g[u+pad-2:], w[ci*3:], c.cin, c.cout, l, lout)
			}
		}
	} else {
		for ; ci+4 <= c.cin; ci += 4 {
			for u := lo; u < hi; u += 4 {
				u = min(u, hi-4)
				conv3BwdTile4(dx[ci*l+u:], g[u+pad-2:], w[ci*3:], c.cin, c.cout, l, lout)
			}
		}
	}
	for ; ci < c.cin; ci++ {
		for u := lo; u < hi; u += 4 {
			u = min(u, hi-4)
			conv3BwdQuad(dx[ci*l+u:ci*l+u+4], g[u+pad-2:], w[ci*3:], c.cin, c.cout, lout)
		}
	}
	conv3BwdEdges(dx, g, w, c.cin, c.cout, l, lout, pad)
}

// bwdDxRows computes the input gradient for any kernel size in the
// oracle's own loop order.
func (c *Conv1D) bwdDxRows(dx, g []float64, l, lout int) {
	pad := c.pad()
	clear(dx)
	for o := 0; o < c.cout; o++ {
		gRow := g[o*lout : (o+1)*lout]
		for ci := 0; ci < c.cin; ci++ {
			wRow := c.w.W[(o*c.cin+ci)*c.k : (o*c.cin+ci+1)*c.k]
			dxRow := dx[ci*l : (ci+1)*l]
			for j, wj := range wRow {
				off := j - pad
				for t := max(0, -off); t < min(lout, l-off); t++ {
					dxRow[t+off] += wj * gRow[t]
				}
			}
		}
	}
}

// bwdDw accumulates the weight gradients of a k=3 layer with convDw: row t
// of s.dwCols holds, at lane ci*3+j, the input tap j of channel ci reads for
// output t (0 where that falls off a "same" row, a lane s.mask drops).
func (c *Conv1D) bwdDw(s *wsState, x, g []float64, l, lout int) {
	m, pad := c.cin*3, c.pad()
	cols := s.dwCols[:lout*m]
	for t := 0; t < lout; t++ {
		row := cols[t*m : (t+1)*m]
		for ci := 0; ci < c.cin; ci++ {
			xRow := x[ci*l : (ci+1)*l]
			for j := 0; j < 3; j++ {
				v := 0.0
				if u := t + j - pad; u >= 0 && u < l {
					v = xRow[u]
				}
				row[ci*3+j] = v
			}
		}
	}
	for o := 0; o < c.cout; o++ {
		convDw(c.w.G[o*m:(o+1)*m], g[o*lout:(o+1)*lout], cols, s.dwMask, lout, m)
	}
}

// dwMask returns convDw's masks for a k=3 layer: row 0's drops tap 0 and
// row lout-1's drops tap 2 when the padding is "same", where those taps
// read past the row; "valid" drops nothing.
func (c *Conv1D) dwMask() []uint64 {
	m := c.cin * 3
	mask := make([]uint64, 2*m)
	for e := range mask {
		mask[e] = ^uint64(0)
	}
	if c.same {
		for ci := 0; ci < c.cin; ci++ {
			mask[ci*3] = 0
			mask[m+ci*3+2] = 0
		}
	}
	return mask
}

// bwdDwRows accumulates the weight gradients for any kernel size in the
// oracle's own loop order.
func (c *Conv1D) bwdDwRows(x, g []float64, l, lout int) {
	pad := c.pad()
	for o := 0; o < c.cout; o++ {
		gRow := g[o*lout : (o+1)*lout]
		for ci := 0; ci < c.cin; ci++ {
			base := (o*c.cin + ci) * c.k
			xRow := x[ci*l : (ci+1)*l]
			for j := 0; j < c.k; j++ {
				off := j - pad
				var dwj float64
				for t := max(0, -off); t < min(lout, l-off); t++ {
					dwj += gRow[t] * xRow[t+off]
				}
				c.w.G[base+j] += dwj
			}
		}
	}
}

// ---------------------------------------------------------------------------
// ReLU

func (r *ReLU) fwdWS(s *wsState, x, y []float64, _ bool) {
	for i, v := range x {
		if v > 0 {
			s.mask[i] = true
			y[i] = v
		} else {
			s.mask[i] = false
			y[i] = 0
		}
	}
}

func (r *ReLU) bwdWS(s *wsState, _, grad, dx []float64, _ bool) {
	for i, g := range grad {
		if s.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
}

// ---------------------------------------------------------------------------
// MaxPool1D

func (m *MaxPool1D) fwdWS(s *wsState, x, y []float64, _ bool) {
	l, rows, lout := shapeCols(s.in), shapeRows(s.out), shapeCols(s.out)
	for r := 0; r < rows; r++ {
		xRow := x[r*l : (r+1)*l]
		yRow := y[r*lout : (r+1)*lout]
		for t := 0; t < lout; t++ {
			base := t * m.size
			best := base
			for j := base + 1; j < base+m.size; j++ {
				if xRow[j] > xRow[best] {
					best = j
				}
			}
			yRow[t] = xRow[best]
			s.argmax[r*lout+t] = best
		}
	}
}

func (m *MaxPool1D) bwdWS(s *wsState, _, grad, dx []float64, _ bool) {
	clear(dx)
	l, rows, lout := shapeCols(s.in), shapeRows(s.out), shapeCols(s.out)
	for r := 0; r < rows; r++ {
		gRow := grad[r*lout : (r+1)*lout]
		dxRow := dx[r*l : (r+1)*l]
		for t := 0; t < lout; t++ {
			dxRow[s.argmax[r*lout+t]] += gRow[t]
		}
	}
}

// ---------------------------------------------------------------------------
// Dropout

func (d *Dropout) fwdWS(s *wsState, x, y []float64, train bool) {
	if !train || d.p <= 0 {
		s.dropped = false
		copy(y, x)
		return
	}
	s.dropped = true
	keep := 1 - d.p
	scale := 1 / keep
	for i, v := range x {
		if s.rng.Float64() < keep {
			s.fmask[i] = scale
			y[i] = v * scale
		} else {
			s.fmask[i] = 0
			y[i] = 0
		}
	}
}

func (d *Dropout) bwdWS(s *wsState, _, grad, dx []float64, _ bool) {
	if !s.dropped {
		copy(dx, grad)
		return
	}
	for i, g := range grad {
		dx[i] = g * s.fmask[i]
	}
}

// ---------------------------------------------------------------------------
// Flatten — the workspace aliases the flat buffers onto the shaped ones
// (see NewWorkspace), so both directions are no-ops.

func (f *Flatten) fwdWS(_ *wsState, _, _ []float64, _ bool) {}

func (f *Flatten) bwdWS(_ *wsState, _, _, _ []float64, _ bool) {}

// ---------------------------------------------------------------------------
// Dense

func (d *Dense) fwdWS(_ *wsState, x, y []float64, _ bool) {
	d.fwdRows(x, y, 1, d.in, d.out)
}

func (d *Dense) bwdWS(_ *wsState, x, grad, dx []float64, accum bool) {
	clear(dx)
	for o := 0; o < d.out; o++ {
		g := grad[o]
		if accum {
			d.b.G[o] += g
		}
		if g == 0 {
			continue
		}
		axpy(dx, d.w.W[o*d.in:(o+1)*d.in], g)
		if accum {
			axpy(d.w.G[o*d.in:(o+1)*d.in], x, g)
		}
	}
}
