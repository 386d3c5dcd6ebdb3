//go:build !amd64

package index

func scanBlocks(dst, q, cols []float64, bound float64) { scanBlocksGo(dst, q, cols, bound) }
