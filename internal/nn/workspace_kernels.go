package nn

import (
	"math"
	"math/rand"
)

// Layer kernels: what the batch plans (batch.go) run per layer beyond
// the primitives themselves. Each one computes exactly the same
// floating-point operations, in exactly the same order, as the
// allocating reference in the package's tests (oracle_test.go) — that is
// the invariant the bit-identity property tests enforce — but writes into
// plan arenas and keeps all mutable state in the workspace, never in the
// layer. The Conv1D and Dense passes run on the shared primitives of
// kernels.go (forward) and kernels_bwd.go (backward), ReLU and MaxPool1D
// on the elementwise ones of kernels.go.

// ---------------------------------------------------------------------------
// Conv1D

// bwdRow is fwdRow's backward pass for one row: the input gradient into
// dx (nil to skip it) from the output gradient g and the layer input x,
// and, when accum is set, the weight and bias gradients added into the
// layer's Param.G. s is the layer's workspace state.
func (c *Conv1D) bwdRow(s *wsState, x, g, dx []float64, l, lout int, accum bool) {
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
	if dx != nil {
		c.bwdDx(dx, g, l, lout)
	}
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

// bwdDw accumulates the weight gradients of a k=3 layer with convDw, two
// output channels at a time (convDw2) and a last odd one alone: row t of
// s.dwCols holds, at lane ci*3+j, the input tap j of channel ci reads for
// output t. Every row whose three taps are in range takes three plain
// copies per channel; the first and last row of a "same" layer read past
// the row at tap 0 and tap 2, which get a 0 there (a lane s.dwMask drops
// anyway).
func (c *Conv1D) bwdDw(s *wsState, x, g []float64, l, lout int) {
	m, pad := c.cin*3, c.pad()
	cols := s.dwCols[:lout*m]
	for t := pad; t < lout-pad; t++ {
		row, u := cols[t*m:(t+1)*m], t-pad
		for ci := 0; ci < c.cin; ci++ {
			r, xr := row[ci*3:ci*3+3], x[ci*l+u:ci*l+u+3]
			r[0], r[1], r[2] = xr[0], xr[1], xr[2]
		}
	}
	if pad == 1 {
		first, last := cols[:m], cols[(lout-1)*m:lout*m]
		for ci := 0; ci < c.cin; ci++ {
			xr := x[ci*l : (ci+1)*l]
			first[ci*3], first[ci*3+1], first[ci*3+2] = 0, xr[0], xr[1]
			last[ci*3], last[ci*3+1], last[ci*3+2] = xr[l-2], xr[l-1], 0
		}
	}
	o := 0
	for ; o+2 <= c.cout; o += 2 {
		convDw2(c.w.G[o*m:(o+2)*m], g[o*lout:(o+2)*lout], cols, s.dwMask, lout, m)
	}
	if o < c.cout {
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
// MaxPool1D — size 2 on pool2 and pool2Bwd, any other size in the oracle's
// loop; the backward pass re-derives each window's argmax from x, the
// layer input the plan keeps. (ReLU needs no method of its own: the plans
// call relu and reluBwd on the packed arena, and reluBwd takes its mask
// from x.)

// fwdRows pools rows rows of l inputs each into rows of lout outputs:
// every channel of every row of a batch.
func (m *MaxPool1D) fwdRows(x, y []float64, rows, l, lout int) {
	if m.size == 2 && l == 2*lout {
		pool2(y[:rows*lout], x) // no row has a tail: one run
		return
	}
	for r := 0; r < rows; r++ {
		xRow, yRow := x[r*l:(r+1)*l], y[r*lout:(r+1)*lout]
		if m.size == 2 {
			pool2(yRow, xRow)
			continue
		}
		for t := range yRow {
			yRow[t] = xRow[poolArgmax(xRow, t*m.size, m.size)]
		}
	}
}

// bwdRows is fwdRows's backward pass: dx, rows rows of l, from grad, rows
// rows of lout, and the layer input x.
func (m *MaxPool1D) bwdRows(x, grad, dx []float64, rows, l, lout int) {
	if m.size == 2 && l == 2*lout {
		pool2Bwd(dx[:rows*l], grad[:rows*lout], x)
		return
	}
	if m.size != 2 {
		clear(dx[:rows*l])
	}
	for r := 0; r < rows; r++ {
		xRow, gRow, dxRow := x[r*l:(r+1)*l], grad[r*lout:(r+1)*lout], dx[r*l:(r+1)*l]
		if m.size == 2 {
			pool2Bwd(dxRow, gRow, xRow)
			continue
		}
		for t, g := range gRow {
			dxRow[poolArgmax(xRow, t*m.size, m.size)] += g
		}
	}
}

// ---------------------------------------------------------------------------
// Dropout

// dropout is the train-mode forward pass over len(y) elements: one draw
// from rng per element in the oracle's order, and the keep decision
// selects y and its mask by bit mask, not by branch.
func (d *Dropout) dropout(rng *rand.Rand, mask, x, y []float64) {
	keep := 1 - d.p
	scale := 1 / keep
	scaleBits := math.Float64bits(scale)
	x, mask = x[:len(y)], mask[:len(y)]
	for i, v := range x {
		kept := boolMask(rng.Float64() < keep)
		mask[i] = math.Float64frombits(scaleBits & kept)
		y[i] = math.Float64frombits(math.Float64bits(v*scale) & kept)
	}
}

// dropoutBwd is dx[i] = g[i] * mask[i] over len(dx) elements.
func dropoutBwd(dx, g, mask []float64) {
	g, mask = g[:len(dx)], mask[:len(dx)]
	for i, gi := range g {
		dx[i] = gi * mask[i]
	}
}

// ---------------------------------------------------------------------------
// Dense

// bwdRows is the backward pass for rows packed rows, x and grad at
// strides d.in and d.out, dx (nil to skip the input gradient) at d.in;
// accum adds the weight and bias gradients into the layer's Param.G, and
// offs and gs are scratch of at least rows entries. Each weight row and
// each gradient row is read once for the batch: neuron o lists the rows
// whose g[o] is nonzero, adds w[o]*g[o] to each of their dx rows, and,
// when accumulating, hands the list to axpyList, which adds the rows'
// g[o]*x to gw[o] in ascending row order. Every element thus takes its
// terms in the oracle's order, skips included: dx[i] over o ascending,
// gw[o][i] and the bias over rows ascending.
func (d *Dense) bwdRows(x, grad, dx []float64, rows int, offs []int, gs []float64, accum bool) {
	if accum {
		for r := 0; r < rows; r++ {
			for o, g := range grad[r*d.out : (r+1)*d.out] {
				d.b.G[o] += g
			}
		}
	}
	if dx != nil {
		clear(dx[:rows*d.in])
	}
	for o := 0; o < d.out; o++ {
		k := 0
		for r := 0; r < rows; r++ {
			if g := grad[r*d.out+o]; g != 0 {
				offs[k], gs[k] = r*d.in, g
				k++
			}
		}
		if k == 0 {
			continue
		}
		if dx != nil {
			w := d.w.W[o*d.in : (o+1)*d.in]
			for j, off := range offs[:k] {
				axpy(dx[off:off+d.in], w, gs[j])
			}
		}
		if accum {
			axpyList(d.w.G[o*d.in:(o+1)*d.in], x, offs[:k], gs[:k])
		}
	}
}
