package nn

import "math"

// Backward kernels. The contract is the test oracle's (oracleConv and
// oracleDense in oracle_test.go), and like the forward one it makes every element its
// own chain:
//
//   - conv dx[ci,u] starts at +0 and adds w[o,ci,j] * g[o,u+pad-j] over
//     output channels o ascending, then taps j ascending;
//   - conv dw[o,ci,j] starts at +0 and adds g[o,t] * x[ci,t+j-pad] over t
//     ascending, and that sum is added to the gradient once per call;
//   - dense dx[i] starts at +0 and adds w[o,i] * g[o] over o ascending,
//     skipping every o whose g[o] is zero;
//   - dense gw[o,i] gets one add of g[o] * x[i] per row, rows ascending,
//     skipping every row whose g[o] is zero.
//
// So the lanes of a vector can again be outputs — dx or dw elements —
// each lane running its own chain with separately rounded multiplies and
// adds. Six primitives do the paper network's backward arithmetic:
//
//   - conv3BwdTile: the input gradient of a k=3 layer at 2 input channels
//     x 8 positions whose three taps are all in range, output channels
//     innermost; conv3BwdTile4 is the same at 4 channels x 4 positions,
//     for rows whose interior is shorter than 8 (conv4's is 6).
//   - conv3BwdEdges: the input gradient at the ends of a k=3 row, which
//     see one or two taps, a lane per input channel.
//   - convDw2: the weight gradients of two output channels of a k=3
//     layer, lanes over (input channel, tap), the two sharing every load
//     of an im2col copy of the layer input that bwdDw builds once per
//     call. An odd last output channel, which no shipped architecture
//     has, runs alone through the portable one-channel form convDwGo.
//   - axpy: y += x * a, the dense layer's dx rows (and gw at batch 1).
//   - axpyList: y += x_j * a_j over a list of rows x_j, in list order,
//     a tile of y staying in registers: a training sub-batch's dense
//     weight gradient, gw[o] taking the rows whose g[o] is nonzero in
//     ascending order (Dense.bwdRows).
//
// Each has Go assembly on amd64 with AVX (kernels_amd64.s) and the
// portable twin below, which the assembly is tested against. What the
// primitives do not cover — a kernel size other than 3, a channel left
// over from the tiles (conv3BwdQuad), a row whose interior is shorter
// than 4 — is plain Go under the same contract in Conv1D.bwdRow.

// conv3BwdTileGo is the portable conv3BwdTile: for c < 2 and p < 8,
// dx[c*l+p] is the sum over o < cout, then j < 3, of
// w[o*cin*3+c*3+j] * g[o*lout+p+2-j].
func conv3BwdTileGo(dx, g, w []float64, cin, cout, l, lout int) {
	conv3BwdQuad(dx[0:4], g, w, cin, cout, lout)
	conv3BwdQuad(dx[4:8], g[4:], w, cin, cout, lout)
	conv3BwdQuad(dx[l:l+4], g, w[3:], cin, cout, lout)
	conv3BwdQuad(dx[l+4:l+8], g[4:], w[3:], cin, cout, lout)
}

// conv3BwdTile4Go is the portable conv3BwdTile4: conv3BwdTileGo's sum for
// c < 4 and p < 4.
func conv3BwdTile4Go(dx, g, w []float64, cin, cout, l, lout int) {
	for c := 0; c < 4; c++ {
		conv3BwdQuad(dx[c*l:c*l+4], g, w[c*3:], cin, cout, lout)
	}
}

// conv3BwdQuad computes four consecutive input-gradient elements of one
// channel with the four chains in registers.
func conv3BwdQuad(dx, g, w []float64, cin, cout, lout int) {
	var v0, v1, v2, v3 float64
	for o := 0; o < cout; o++ {
		w0, w1, w2 := w[o*cin*3], w[o*cin*3+1], w[o*cin*3+2]
		gr := g[o*lout : o*lout+6]
		v0 += w0 * gr[2]
		v0 += w1 * gr[1]
		v0 += w2 * gr[0]
		v1 += w0 * gr[3]
		v1 += w1 * gr[2]
		v1 += w2 * gr[1]
		v2 += w0 * gr[4]
		v2 += w1 * gr[3]
		v2 += w2 * gr[2]
		v3 += w0 * gr[5]
		v3 += w1 * gr[4]
		v3 += w2 * gr[3]
	}
	dx[0], dx[1], dx[2], dx[3] = v0, v1, v2, v3
}

// convDwGo is one output channel of convDw2: for e < len(gw), with rows
// t < n of cols at stride s, gw[e] += the sum over t of g[t] *
// cols[t*s+e], where the product of row 0 is ANDed with mask[e] and that
// of row n-1 with mask[s+e]. A zero mask lane turns the product into +0,
// which leaves a chain that started at +0 exactly as it was: that is how
// a "same" row skips the taps that fall off its ends. n must be at least
// 2.
func convDwGo(gw, g, cols []float64, mask []uint64, n, s int) {
	last := (n - 1) * s
	e := 0
	for ; e+4 <= len(gw); e += 4 {
		c, m := cols[e:e+4], mask[e:e+4]
		g0 := g[0]
		v0 := 0 + maskMul(g0*c[0], m[0])
		v1 := 0 + maskMul(g0*c[1], m[1])
		v2 := 0 + maskMul(g0*c[2], m[2])
		v3 := 0 + maskMul(g0*c[3], m[3])
		for t := 1; t < n-1; t++ {
			gt, c := g[t], cols[t*s+e:t*s+e+4]
			v0 += gt * c[0]
			v1 += gt * c[1]
			v2 += gt * c[2]
			v3 += gt * c[3]
		}
		gl, c, m := g[n-1], cols[last+e:last+e+4], mask[s+e:s+e+4]
		v0 += maskMul(gl*c[0], m[0])
		v1 += maskMul(gl*c[1], m[1])
		v2 += maskMul(gl*c[2], m[2])
		v3 += maskMul(gl*c[3], m[3])
		gw[e] += v0
		gw[e+1] += v1
		gw[e+2] += v2
		gw[e+3] += v3
	}
	for ; e < len(gw); e++ {
		v := 0 + maskMul(g[0]*cols[e], mask[e])
		for t := 1; t < n-1; t++ {
			v += g[t] * cols[t*s+e]
		}
		v += maskMul(g[n-1]*cols[last+e], mask[s+e])
		gw[e] += v
	}
}

func maskMul(p float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(p) & m)
}

// conv3BwdEdgesGo is the portable conv3BwdEdges: the input gradient of
// channels [0, nch) of a k=3 layer at the inputs outside the tiles'
// interior [2-pad, lout-pad), which see one or two taps, for an interior
// of at least one input. Output channels are the outer loop, so each
// element's chain runs in the contract's order through memory, and the
// elements of all nch channels are in flight at once.
func conv3BwdEdgesGo(dx, g, w []float64, nch, cin, cout, l, lout, pad int) {
	type term struct{ u, j, t int }
	var terms [8]term
	n := 0
	for u := 0; u < l; u++ {
		if u == 2-pad {
			u = lout - pad // skip the interior
		}
		for j := 0; j < 3; j++ {
			if t := u + pad - j; t >= 0 && t < lout {
				terms[n] = term{u, j, t}
				n++
			}
		}
		for ci := 0; ci < nch; ci++ {
			dx[ci*l+u] = 0
		}
	}
	for o := 0; o < cout; o++ {
		gRow := g[o*lout : (o+1)*lout]
		for ci := 0; ci < nch; ci++ {
			wRow := w[(o*cin+ci)*3 : (o*cin+ci)*3+3]
			dxRow := dx[ci*l : (ci+1)*l]
			for _, e := range terms[:n] {
				dxRow[e.u] += wRow[e.j] * gRow[e.t]
			}
		}
	}
}

// axpyGo is the portable axpy: y[i] += x[i] * a.
func axpyGo(y, x []float64, a float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += x[i] * a
	}
}

// axpyListGo is the portable axpyList: y[e] += x[offs[j]+e] * a[j] for
// every e < len(y), over j ascending.
func axpyListGo(y, x []float64, offs []int, a []float64) {
	for j, off := range offs {
		axpyGo(y, x[off:off+len(y)], a[j])
	}
}

// adamConsts are the scalars of one Adam step, in the order adamAVX reads
// them.
type adamConsts struct {
	inv, b1, ob1, b2, ob2, lr, c1, c2, eps float64
}

// adamGo is the portable adamStep: for every j, with g = gr[j] * inv,
//
//	m[j] = b1*m[j] + (1-b1)*g
//	v[j] = b2*v[j] + ((1-b2)*g)*g
//	w[j] = w[j] - lr*(m[j]/c1) / (sqrt(v[j]/c2) + eps)
//
// each operation rounded on its own, in that order.
func adamGo(w, gr, m, v []float64, k *adamConsts) {
	gr, m, v = gr[:len(w)], m[:len(w)], v[:len(w)]
	for j := range w {
		g := gr[j] * k.inv
		m[j] = k.b1*m[j] + k.ob1*g
		v[j] = k.b2*v[j] + k.ob2*g*g
		w[j] -= k.lr * (m[j] / k.c1) / (math.Sqrt(v[j]/k.c2) + k.eps)
	}
}
