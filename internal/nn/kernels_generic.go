//go:build !amd64

package nn

func conv3Tile(y0, y1, x, w0, w1 []float64, b0, b1 float64, cin, l int) {
	conv3TileGo(y0, y1, x, w0, w1, b0, b1, cin, l)
}

func dense8x4(y []float64, ys int, xt, w, b []float64) { dense8x4Go(y, ys, xt, w, b) }

func conv3Edges(y, x, w, b []float64, cin, l int) { conv3EdgesGo(y, x, w, b, cin, l) }

func conv3BwdTile(dx, g, w []float64, cin, cout, l, lout int) {
	conv3BwdTileGo(dx, g, w, cin, cout, l, lout)
}

func conv3BwdTile4(dx, g, w []float64, cin, cout, l, lout int) {
	conv3BwdTile4Go(dx, g, w, cin, cout, l, lout)
}

func convDw2(gw, g, cols []float64, mask []uint64, n, s int) {
	convDwGo(gw[:s], g[:n], cols, mask, n, s)
	convDwGo(gw[s:2*s], g[n:2*n], cols, mask, n, s)
}

func axpy(y, x []float64, a float64) { axpyGo(y, x, a) }

func axpyList(y, x []float64, offs []int, a []float64) { axpyListGo(y, x, offs, a) }

func adamStep(w, g, m, v []float64, k *adamConsts) { adamGo(w, g, m, v, k) }

func conv3BwdEdges(dx, g, w []float64, cin, cout, l, lout, pad int) {
	conv3BwdEdgesGo(dx, g, w, cin, cin, cout, l, lout, pad)
}

func relu(y, x []float64) { reluGo(y, x) }

func reluBwd(dx, g, x []float64) { reluBwdGo(dx, g, x) }

func pool2(y, x []float64) { pool2Go(y, x) }

func pool2Bwd(dx, g, x []float64) { pool2BwdGo(dx, g, x) }
