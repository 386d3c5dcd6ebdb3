package nn

import (
	"math/rand"
)

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

// blobs generates two well-separated Gaussian clusters for trainer tests.
func blobs(seed int64, n, dim int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		label := i % 2
		center := -1.0
		if label == 1 {
			center = 1.0
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = center + rng.NormFloat64()*0.3
		}
		x[i] = v
		y[i] = label
	}
	return x, y
}

// wroteWeights is what a test that writes Param.W in place between two
// passes calls after the write, as the package's own writers call
// Param.wrote: it marks net's dense-layer packs stale.
func wroteWeights(net *Network) {
	for _, p := range net.Params() {
		p.wrote()
	}
}
