//go:build !amd64

package nn

func conv3Tile(y0, y1, x, w0, w1 []float64, b0, b1 float64, cin, l int) {
	conv3TileGo(y0, y1, x, w0, w1, b0, b1, cin, l)
}

func dense8(y, x, w, b []float64) { denseGo(y, x, w, b) }
