package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleFit replicates the trainer's algorithm on the test oracle —
// Forward/softmaxCE/Backward on per-worker CloneShared views with
// the strided worker binding, the fixed pairwise-tree gradient reduction
// with fused zeroing (serially, whole tensors at a time: the trainer's
// element-range chunking only distributes disjoint work and cannot
// change any bit), and the same optimizer stepping — so the parity tests
// can pin the workspace-backed Trainer to byte-identical weights.
func oracleFit(net *Network, x [][]float64, y []int, seed int64, epochs, batch, workers int, classWeights []float64) {
	rng := rand.New(rand.NewSource(seed))
	clones := make([]*oracle, workers)
	for w := range clones {
		clones[w] = newOracle(net.CloneShared())
		clones[w].Reseed(seed + int64(w+1)*104729)
	}
	params := net.Params()
	opt := &Adam{}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			chunk := idx[start:end]
			// The pool binds item k to worker k%workers and each worker
			// processes its items in ascending k; replicate serially.
			// (No per-batch ZeroGrad: the tree reduction below zeroes
			// every accumulator it consumes, and fresh clones start zero.)
			for w := 0; w < workers; w++ {
				for k := w; k < len(chunk); k += workers {
					c := clones[w]
					i := chunk[k]
					logits := c.Forward(x[i], true)
					_, dLogits := softmaxCE(logits, y[i])
					if classWeights != nil {
						cw := classWeights[y[i]]
						for j := range dLogits {
							dLogits[j] *= cw
						}
					}
					c.Backward(dLogits)
				}
			}
			for stride := 1; stride < workers; stride *= 2 {
				for a := 0; a+stride < workers; a += 2 * stride {
					ap, bp := clones[a].net.Params(), clones[a+stride].net.Params()
					for pi := range params {
						dst, src := ap[pi].G, bp[pi].G
						for j := range dst {
							dst[j] += src[j]
							src[j] = 0
						}
					}
				}
			}
			for pi, p := range params {
				root := clones[0].net.Params()[pi].G
				for j := range p.G {
					p.G[j] = root[j]
					root[j] = 0
				}
			}
			opt.Step(params, float64(len(chunk)))
		}
	}
}

// TestTrainerWorkspaceParity trains the paper CNN twice — once with the
// workspace-backed Trainer, once with the replicated oracle loop —
// and requires every weight to come out bit-identical. This is the
// guarantee that moving the trainer onto the workspace engine changed
// nothing about training, down to the dropout streams and the order of
// every floating-point add.
func TestTrainerWorkspaceParity(t *testing.T) {
	const seed, epochs, batch, workers = 42, 2, 16, 3
	x, y := blobs(3, 40, PaperInputLen)
	weights := []float64{1.0, 2.5}

	trained := PaperCNN(9)
	tr := &Trainer{
		Epochs: epochs, BatchSize: batch, Seed: seed, Workers: workers,
		ClassWeights: weights,
	}
	if _, err := tr.Fit(trained, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}

	oracle := PaperCNN(9)
	oracleFit(oracle, x, y, seed, epochs, batch, workers, weights)

	tp, op := trained.Params(), oracle.Params()
	for pi := range tp {
		for j := range tp[pi].W {
			if math.Float64bits(tp[pi].W[j]) != math.Float64bits(op[pi].W[j]) {
				t.Fatalf("param %s[%d]: trainer %v oracle %v",
					tp[pi].Name, j, tp[pi].W[j], op[pi].W[j])
			}
		}
	}
}

// requireSameWeights asserts two trained networks carry bit-identical
// weights.
func requireSameWeights(t *testing.T, label string, a, b *Network) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for pi := range ap {
		for j := range ap[pi].W {
			if math.Float64bits(ap[pi].W[j]) != math.Float64bits(bp[pi].W[j]) {
				t.Fatalf("%s: param %s[%d]: %v vs %v",
					label, ap[pi].Name, j, ap[pi].W[j], bp[pi].W[j])
			}
		}
	}
}

// TestTrainerReductionParityWorkers pins the chunked parallel tree
// reduction to byte-identical final weights against the serial oracle at
// every worker width the tree exercises differently: the degenerate
// single-clone fold, the one-level tree, and the two-level tree whose
// chunks genuinely race across pool workers. A scheduling-order
// dependence anywhere in the reduction fails this test.
func TestTrainerReductionParityWorkers(t *testing.T) {
	const seed, epochs, batch = 42, 2, 16
	x, y := blobs(5, 40, PaperInputLen)
	weights := []float64{1.0, 2.5}

	for _, workers := range []int{1, 2, 4} {
		trained := PaperCNN(11)
		tr := &Trainer{
			Epochs: epochs, BatchSize: batch, Seed: seed, Workers: workers,
			ClassWeights: weights,
		}
		if _, err := tr.Fit(trained, x, y); err != nil {
			t.Fatalf("workers=%d: Fit: %v", workers, err)
		}

		oracle := PaperCNN(11)
		oracleFit(oracle, x, y, seed, epochs, batch, workers, weights)
		requireSameWeights(t, fmt.Sprintf("workers=%d", workers), trained, oracle)
	}
}
