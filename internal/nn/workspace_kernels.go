package nn

import (
	"advmal/internal/tensor"
)

// Workspace kernels: the per-layer fwdWS/bwdWS implementations. Each one
// computes exactly the same floating-point operations, in exactly the
// same order, as the layer's allocating Forward/Backward — that is the
// invariant the bit-identity property tests enforce — but writes into
// preallocated workspace buffers and keeps all mutable state in the
// wsState, never in the layer. The Conv1D and Dense passes run on the
// shared primitives of kernels.go (forward) and kernels_bwd.go
// (backward).

// ---------------------------------------------------------------------------
// Conv1D

func (c *Conv1D) fwdWS(_ *wsState, x, y *tensor.T, _ bool) {
	c.fwdRow(x.Data, y.Data, x.Cols(), y.Cols())
}

func (c *Conv1D) bwdWS(s *wsState, x, grad, dx *tensor.T, accum bool) {
	l, lout := x.Cols(), grad.Cols()
	g := grad.Data
	if accum {
		for o := 0; o < c.cout; o++ {
			var gSum float64
			for _, v := range g[o*lout : (o+1)*lout] {
				gSum += v
			}
			c.b.G[o] += gSum
		}
		if s.dwCols != nil && lout >= 2 {
			c.bwdDw(s, x.Data, g, l, lout)
		} else {
			c.bwdDwRows(x.Data, g, l, lout)
		}
	}
	c.bwdDx(dx.Data, g, l, lout)
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

func (r *ReLU) fwdWS(s *wsState, x, y *tensor.T, _ bool) {
	for i, v := range x.Data {
		if v > 0 {
			s.mask[i] = true
			y.Data[i] = v
		} else {
			s.mask[i] = false
			y.Data[i] = 0
		}
	}
}

func (r *ReLU) bwdWS(s *wsState, _, grad, dx *tensor.T, _ bool) {
	for i, g := range grad.Data {
		if s.mask[i] {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
}

// ---------------------------------------------------------------------------
// MaxPool1D

func (m *MaxPool1D) fwdWS(s *wsState, x, y *tensor.T, _ bool) {
	rows, lout := y.Rows(), y.Cols()
	for r := 0; r < rows; r++ {
		xRow := x.Row(r)
		yRow := y.Row(r)
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

func (m *MaxPool1D) bwdWS(s *wsState, _, grad, dx *tensor.T, _ bool) {
	dx.Zero()
	rows, lout := grad.Rows(), grad.Cols()
	for r := 0; r < rows; r++ {
		gRow := grad.Row(r)
		dxRow := dx.Row(r)
		for t := 0; t < lout; t++ {
			dxRow[s.argmax[r*lout+t]] += gRow[t]
		}
	}
}

// ---------------------------------------------------------------------------
// Dropout

func (d *Dropout) fwdWS(s *wsState, x, y *tensor.T, train bool) {
	if !train || d.p <= 0 {
		s.dropped = false
		copy(y.Data, x.Data)
		return
	}
	s.dropped = true
	keep := 1 - d.p
	scale := 1 / keep
	for i, v := range x.Data {
		if s.rng.Float64() < keep {
			s.fmask[i] = scale
			y.Data[i] = v * scale
		} else {
			s.fmask[i] = 0
			y.Data[i] = 0
		}
	}
}

func (d *Dropout) bwdWS(s *wsState, _, grad, dx *tensor.T, _ bool) {
	if !s.dropped {
		copy(dx.Data, grad.Data)
		return
	}
	for i, g := range grad.Data {
		dx.Data[i] = g * s.fmask[i]
	}
}

// ---------------------------------------------------------------------------
// Flatten — the workspace aliases the flat buffers onto the shaped ones
// (see NewWorkspace), so both directions are no-ops.

func (f *Flatten) fwdWS(_ *wsState, _, _ *tensor.T, _ bool) {}

func (f *Flatten) bwdWS(_ *wsState, _, _, _ *tensor.T, _ bool) {}

// ---------------------------------------------------------------------------
// Dense

func (d *Dense) fwdWS(_ *wsState, x, y *tensor.T, _ bool) {
	d.fwdRows(x.Data, y.Data, 1, d.in, d.out)
}

func (d *Dense) bwdWS(_ *wsState, x, grad, dx *tensor.T, accum bool) {
	dx.Zero()
	for o := 0; o < d.out; o++ {
		g := grad.Data[o]
		if accum {
			d.b.G[o] += g
		}
		if g == 0 {
			continue
		}
		axpy(dx.Data, d.w.W[o*d.in:(o+1)*d.in], g)
		if accum {
			axpy(d.w.G[o*d.in:(o+1)*d.in], x.Data, g)
		}
	}
}

// Kernel compliance: every layer this package defines has a real
// workspace kernel (external Layer implementations fall back to
// oracleKernel).
var (
	_ wsKernel = (*Conv1D)(nil)
	_ wsKernel = (*ReLU)(nil)
	_ wsKernel = (*MaxPool1D)(nil)
	_ wsKernel = (*Dropout)(nil)
	_ wsKernel = (*Flatten)(nil)
	_ wsKernel = (*Dense)(nil)
)
