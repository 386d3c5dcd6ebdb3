package index

//go:noescape
func scanBlocksAVX(dst, q, cols *float64, dim, blocks int, bound float64)

func scanBlocks(dst, q, cols []float64, bound float64) {
	dim, blocks := len(q), len(dst)/scanLanes
	if !useAVX || dim == 0 || blocks == 0 {
		scanBlocksGo(dst, q, cols, bound)
		return
	}
	// The assembly checks nothing. These are the last elements it
	// touches, so a caller that breaks the contract panics here, in Go.
	_, _ = dst[blocks*scanLanes-1], cols[blocks*scanLanes*dim-1]
	scanBlocksAVX(&dst[0], &q[0], &cols[0], dim, blocks, bound)
}
