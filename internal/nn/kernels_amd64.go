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
