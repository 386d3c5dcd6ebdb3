package nn

import "advmal/internal/cpu"

// useAVX selects the assembly primitives. It is decided once, from what
// the CPU and the OS report; the tests turn it off to pin the portable
// twins on amd64 too.
var useAVX = cpu.AVX

//go:noescape
func conv3TileAVX(y0, y1, x, w0, w1 *float64, b0, b1 float64, cin, l int)

//go:noescape
func dense8AVX(y, x, w, b *float64, in int)

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

func dense8(y, x, w, b []float64) {
	if !useAVX {
		denseGo(y, x, w, b)
		return
	}
	in := len(x)
	if in%4 != 0 {
		panic("nn: dense8: input length must be a multiple of 4")
	}
	// As in conv3Tile; an empty x fails on w[-1].
	_, _, _ = y[7], w[8*in-1], b[7]
	dense8AVX(&y[0], &x[0], &w[0], &b[0], in)
}

//go:noescape
func conv3BwdTileAVX(dx, dy, w *float64, cin, cout, l, lout int)

//go:noescape
func conv3BwdTile4AVX(dx, dy, w *float64, cin, cout, l, lout int)

//go:noescape
func convDwAVX(gw, dy, cols *float64, mask *uint64, n, s, lanes int)

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

func convDw(gw, g, cols []float64, mask []uint64, n, s int) {
	lanes := len(gw) &^ 3
	if !useAVX || lanes == 0 {
		convDwGo(gw, g, cols, mask, n, s)
		return
	}
	_, _, _ = g[n-1], cols[(n-1)*s+lanes-1], mask[s+lanes-1]
	convDwAVX(&gw[0], &g[0], &cols[0], &mask[0], n, s, lanes)
	if lanes < len(gw) {
		convDwGo(gw[lanes:], g, cols[lanes:], mask[lanes:], n, s)
	}
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
