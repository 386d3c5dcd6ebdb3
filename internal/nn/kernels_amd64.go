package nn

import "advmal/internal/cpu"

// useAVX selects the assembly primitives. It is decided once, from what
// the CPU and the OS report; the tests turn it off to pin the portable
// twins on amd64 too.
var useAVX = cpu.AVX

//go:noescape
func conv3TileAVX(y0, y1, x, w0, w1 *float64, b0, b1 float64, cin, l int)

func conv3Tile(y0, y1, x, w0, w1 []float64, b0, b1 float64, cin, l int) {
	if !useAVX {
		conv3TileGo(y0, y1, x, w0, w1, b0, b1, cin, l)
		return
	}
	// The assembly checks nothing. These are the last elements it
	// touches, so a driver that breaks the contract panics here, in Go.
	_, _, _, _, _ = y0[7], y1[7], x[(cin-1)*l+9], w0[cin*3-1], w1[cin*3-1]
	conv3TileAVX(&y0[0], &y1[0], &x[0], &w0[0], &w1[0], b0, b1, cin, l)
}

//go:noescape
func dense8x4AVX(y *float64, ys int, xt, w, b *float64, in int)

func dense8x4(y []float64, ys int, xt, w, b []float64) {
	if !useAVX {
		dense8x4Go(y, ys, xt, w, b)
		return
	}
	in := len(xt) / 4
	// As in conv3Tile; an empty xt fails on xt[-1].
	_, _, _ = y[3*ys+7], w[8*in-1], b[7]
	_ = xt[4*in-1]
	dense8x4AVX(&y[0], ys, &xt[0], &w[0], &b[0], in)
}

//go:noescape
func conv3EdgesAVX(y, x, w, b *float64, cin, l int)

// conv3Edges computes the two edge outputs of every channel of a k=3
// "same" row (conv3EdgesGo), four channels to a vector on AVX.
func conv3Edges(y, x, w, b []float64, cin, l int) {
	nch, o := len(y)/l, 0
	if useAVX {
		_ = x[cin*l-1]
		for ; o+4 <= nch; o += 4 {
			_, _, _ = y[(o+4)*l-1], w[(o+4)*cin*3-1], b[o+3]
			conv3EdgesAVX(&y[o*l], &x[0], &w[o*cin*3], &b[o], cin, l)
		}
	}
	if o < nch {
		conv3EdgesGo(y[o*l:], x, w[o*cin*3:], b[o:], cin, l)
	}
}

//go:noescape
func conv3BwdTileAVX(dx, dy, w *float64, cin, cout, l, lout int)

//go:noescape
func conv3BwdTile4AVX(dx, dy, w *float64, cin, cout, l, lout int)

//go:noescape
func axpyAVX(y, x *float64, a float64, n int)

// The backward wrappers check, like the forward ones, the last element
// the assembly touches, so a driver that breaks the contract panics in Go.

func conv3BwdTile(dx, g, w []float64, cin, cout, l, lout int) {
	if !useAVX {
		conv3BwdTileGo(dx, g, w, cin, cout, l, lout)
		return
	}
	_, _, _ = dx[l+7], g[(cout-1)*lout+9], w[(cout-1)*cin*3+5]
	conv3BwdTileAVX(&dx[0], &g[0], &w[0], cin, cout, l, lout)
}

func conv3BwdTile4(dx, g, w []float64, cin, cout, l, lout int) {
	if !useAVX {
		conv3BwdTile4Go(dx, g, w, cin, cout, l, lout)
		return
	}
	_, _, _ = dx[3*l+3], g[(cout-1)*lout+5], w[(cout-1)*cin*3+11]
	conv3BwdTile4AVX(&dx[0], &g[0], &w[0], cin, cout, l, lout)
}

//go:noescape
func convDw2AVX(gw, dy, cols *float64, mask *uint64, n, s int)

// convDw2 is convDwGo for two output channels: gw[c*s:(c+1)*s] from
// g[c*n:(c+1)*n] for c < 2.
func convDw2(gw, g, cols []float64, mask []uint64, n, s int) {
	if !useAVX {
		convDwGo(gw[:s], g[:n], cols, mask, n, s)
		convDwGo(gw[s:2*s], g[n:2*n], cols, mask, n, s)
		return
	}
	_, _, _, _ = gw[2*s-1], g[2*n-1], cols[n*s-1], mask[2*s-1]
	convDw2AVX(&gw[0], &g[0], &cols[0], &mask[0], n, s)
}

func axpy(y, x []float64, a float64) {
	n := len(y) &^ 3
	if !useAVX || n == 0 {
		axpyGo(y, x, a)
		return
	}
	_ = x[len(y)-1]
	axpyAVX(&y[0], &x[0], a, n)
	axpyGo(y[n:], x[n:], a)
}

//go:noescape
func axpyListAVX(y, x *float64, offs *int, a *float64, k, n int)

func axpyList(y, x []float64, offs []int, a []float64) {
	n := len(y) &^ 3
	if !useAVX || n == 0 || len(offs) == 0 {
		axpyListGo(y, x, offs, a)
		return
	}
	for _, off := range offs {
		_ = x[off+len(y)-1]
	}
	_ = a[len(offs)-1]
	axpyListAVX(&y[0], &x[0], &offs[0], &a[0], len(offs), n)
	if n < len(y) {
		axpyListGo(y[n:], x[n:], offs, a)
	}
}

//go:noescape
func adamAVX(w, gr, m, v *float64, n int, k *adamConsts)

func adamStep(w, g, m, v []float64, k *adamConsts) {
	n := len(w) &^ 3
	if !useAVX || n == 0 {
		adamGo(w, g, m, v, k)
		return
	}
	_, _, _ = g[len(w)-1], m[len(w)-1], v[len(w)-1]
	adamAVX(&w[0], &g[0], &m[0], &v[0], n, k)
	adamGo(w[n:], g[n:], m[n:], v[n:], k)
}

//go:noescape
func conv3BwdEdgesAVX(dx, dy, w *float64, cin, cout, l, lout, pad int)

func conv3BwdEdges(dx, g, w []float64, cin, cout, l, lout, pad int) {
	ci := 0
	if useAVX {
		_, _, _ = dx[cin*l-1], g[cout*lout-1], w[cout*cin*3-1]
		for ; ci+4 <= cin; ci += 4 {
			conv3BwdEdgesAVX(&dx[ci*l], &g[0], &w[ci*3], cin, cout, l, lout, pad)
		}
	}
	if ci < cin {
		conv3BwdEdgesGo(dx[ci*l:], g, w[ci*3:], cin-ci, cin, cout, l, lout, pad)
	}
}

//go:noescape
func reluAVX(y, x *float64, n int)

//go:noescape
func reluBwdAVX(dx, dy, x *float64, n int)

//go:noescape
func pool2AVX(y, x *float64, n int)

//go:noescape
func pool2BwdAVX(dx, dy, x *float64, n int)

// The elementwise assembly takes any length, tail included.

func relu(y, x []float64) {
	if !useAVX || len(y) == 0 {
		reluGo(y, x)
		return
	}
	_ = x[len(y)-1]
	reluAVX(&y[0], &x[0], len(y))
}

func reluBwd(dx, g, x []float64) {
	if !useAVX || len(dx) == 0 {
		reluBwdGo(dx, g, x)
		return
	}
	_, _ = g[len(dx)-1], x[len(dx)-1]
	reluBwdAVX(&dx[0], &g[0], &x[0], len(dx))
}

func pool2(y, x []float64) {
	if !useAVX || len(y) == 0 {
		pool2Go(y, x)
		return
	}
	_ = x[2*len(y)-1]
	pool2AVX(&y[0], &x[0], len(y))
}

func pool2Bwd(dx, g, x []float64) {
	n := len(g)
	if !useAVX || n == 0 {
		pool2BwdGo(dx, g, x)
		return
	}
	_, _ = dx[2*n-1], x[2*n-1]
	pool2BwdAVX(&dx[0], &g[0], &x[0], n)
	clear(dx[2*n:])
}
