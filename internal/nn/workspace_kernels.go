package nn

import (
	"advmal/internal/tensor"
)

// Workspace kernels: the per-layer fwdWS/bwdWS implementations. Each one
// computes exactly the same floating-point operations, in exactly the
// same order, as the layer's allocating Forward/Backward — that is the
// invariant the bit-identity property tests enforce — but writes into
// preallocated workspace buffers and keeps all mutable state in the
// wsState, never in the layer. The Conv1D and Dense forward passes are
// the shared kernels of kernels.go. The backward pass of the k=3
// convolution (the only kernel size the paper's architecture uses) gets
// a fused micro-kernel: the three taps are unrolled into one pass with an
// interior/edge split so the inner loop is branch-free, and the input
// gradient is computed gather-style (per input element, taps in
// ascending order) so the per-element accumulation order matches the
// oracle's tap-major loops bit for bit.

// ---------------------------------------------------------------------------
// Conv1D

func (c *Conv1D) fwdWS(_ *wsState, x, y *tensor.T, _ bool) {
	c.fwdRow(x.Data, y.Data, x.Cols(), y.Cols())
}

func (c *Conv1D) bwdWS(_ *wsState, x, grad, dx *tensor.T, accum bool) {
	l := x.Cols()
	pad := c.pad()
	lout := grad.Cols()
	dx.Zero()
	for o := 0; o < c.cout; o++ {
		gRow := grad.Row(o)
		if accum {
			var gSum float64
			for _, g := range gRow {
				gSum += g
			}
			c.b.G[o] += gSum
		}
		for ci := 0; ci < c.cin; ci++ {
			wBase := (o*c.cin + ci) * c.k
			wRow := c.w.W[wBase : wBase+c.k]
			xRow := x.Row(ci)
			dxRow := dx.Row(ci)
			if c.k == 3 {
				// The fused kernel applies whenever the length guards hold.
				if c.same && l >= 2 {
					conv3BwdSameDx(dxRow, gRow, wRow, l)
					if accum {
						conv3BwdSameDw(c.w.G[wBase:wBase+3], gRow, xRow, l)
					}
					continue
				}
				if !c.same && lout >= 1 {
					conv3BwdValidDx(dxRow, gRow, wRow, lout)
					if accum {
						conv3BwdValidDw(c.w.G[wBase:wBase+3], gRow, xRow, lout)
					}
					continue
				}
			}
			for j := 0; j < c.k; j++ {
				off := j - pad
				lo := 0
				if off < 0 {
					lo = -off
				}
				hi := lout
				if hi > l-off {
					hi = l - off
				}
				wj := wRow[j]
				if accum {
					var dwj float64
					for t := lo; t < hi; t++ {
						g := gRow[t]
						dwj += g * xRow[t+off]
						dxRow[t+off] += wj * g
					}
					c.w.G[wBase+j] += dwj
				} else {
					for t := lo; t < hi; t++ {
						dxRow[t+off] += wj * gRow[t]
					}
				}
			}
		}
	}
}

// conv3BwdSameDx adds one output channel's contribution to the input
// gradient for k=3 "same" padding (lout == l >= 2), gather-style: each
// input element u receives its three tap contributions in ascending tap
// order (w0 from g[u+1], w1 from g[u], w2 from g[u-1]) — the same
// per-element order the oracle's tap-major scatter produces.
func conv3BwdSameDx(dxRow, gRow, wRow []float64, l int) {
	w0, w1, w2 := wRow[0], wRow[1], wRow[2]
	// u = 0: no w2 contribution (it would come from g[-1]).
	v := dxRow[0] + w0*gRow[1]
	v += w1 * gRow[0]
	dxRow[0] = v
	for u := 1; u < l-1; u++ {
		v := dxRow[u] + w0*gRow[u+1]
		v += w1 * gRow[u]
		v += w2 * gRow[u-1]
		dxRow[u] = v
	}
	// u = l-1: no w0 contribution (it would come from g[l]).
	v = dxRow[l-1] + w1*gRow[l-1]
	v += w2 * gRow[l-2]
	dxRow[l-1] = v
}

// conv3BwdSameDw accumulates the three weight gradients for one
// (output, input) channel pair under "same" padding (l >= 2). Each tap's
// scalar accumulator sums over ascending t, exactly like the oracle's
// per-tap loops, with the three sums carried through one merged pass.
func conv3BwdSameDw(gw, gRow, xRow []float64, l int) {
	g0 := gRow[0]
	var dw0 float64
	dw1 := g0 * xRow[0]
	dw2 := g0 * xRow[1]
	for t := 1; t < l-1; t++ {
		g := gRow[t]
		dw0 += g * xRow[t-1]
		dw1 += g * xRow[t]
		dw2 += g * xRow[t+1]
	}
	gl := gRow[l-1]
	dw0 += gl * xRow[l-2]
	dw1 += gl * xRow[l-1]
	gw[0] += dw0
	gw[1] += dw1
	gw[2] += dw2
}

// conv3BwdValidDx adds one output channel's contribution to the input
// gradient for k=3 "valid" padding (lout == l-2 >= 1), gather-style with
// per-element ascending tap order.
func conv3BwdValidDx(dxRow, gRow, wRow []float64, lout int) {
	w0, w1, w2 := wRow[0], wRow[1], wRow[2]
	// Leading edge: u = 0 sees only w0, u = 1 sees w0 (when lout > 1)
	// then w1.
	dxRow[0] += w0 * gRow[0]
	if lout > 1 {
		dxRow[1] += w0 * gRow[1]
	}
	dxRow[1] += w1 * gRow[0]
	for u := 2; u < lout; u++ {
		v := dxRow[u] + w0*gRow[u]
		v += w1 * gRow[u-1]
		v += w2 * gRow[u-2]
		dxRow[u] = v
	}
	// Trailing edge: u = lout sees w1 then w2 (w2 only when lout >= 2,
	// and when lout == 1 that element is u = 1, handled above);
	// u = lout+1 == l-1 sees only w2.
	if lout >= 2 {
		v := dxRow[lout] + w1*gRow[lout-1]
		v += w2 * gRow[lout-2]
		dxRow[lout] = v
	}
	dxRow[lout+1] += w2 * gRow[lout-1]
}

// conv3BwdValidDw accumulates the three weight gradients for one channel
// pair under "valid" padding (lout >= 1) in one branch-free merged pass.
func conv3BwdValidDw(gw, gRow, xRow []float64, lout int) {
	var dw0, dw1, dw2 float64
	for t := 0; t < lout; t++ {
		g := gRow[t]
		dw0 += g * xRow[t]
		dw1 += g * xRow[t+1]
		dw2 += g * xRow[t+2]
	}
	gw[0] += dw0
	gw[1] += dw1
	gw[2] += dw2
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
		row := d.w.W[o*d.in : (o+1)*d.in]
		if accum {
			gw := d.w.G[o*d.in : (o+1)*d.in]
			for i, xi := range x.Data {
				gw[i] += g * xi
				dx.Data[i] += row[i] * g
			}
		} else {
			for i := range x.Data {
				dx.Data[i] += row[i] * g
			}
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
