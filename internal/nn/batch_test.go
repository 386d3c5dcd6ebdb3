package nn

import (
	"math/rand"
	"testing"
)

// TestBatchForwardBitIdentical is the batch-major counterpart of
// TestWorkspaceBitIdentical: on random architectures (kernel sizes 1/3/5,
// both paddings, random pools and dropouts) and random batches,
// ProbsBatch and PredictBatch are bit-for-bit identical to the allocating
// oracle applied row by row — reordering layers outside and rows inside
// must not change a single bit.
func TestBatchForwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		net := buildRandomNet(rng)
		ws := NewWorkspace(net.CloneShared())
		dim := net.InputDim()

		// Vary the batch size across calls so arena growth and reuse both
		// get exercised on the same plan.
		for _, n := range []int{2, 7, 1, 16, 3} {
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = randVec(rng, dim)
			}
			probs := ws.ProbsBatch(xs, nil)
			preds := ws.PredictBatch(xs, nil)
			for i, x := range xs {
				bitsEqual(t, "batch probs", probs[i], net.Probs(x))
				if preds[i] != net.Predict(x) {
					t.Fatalf("batch predict row %d: ws %d oracle %d", i, preds[i], net.Predict(x))
				}
			}
		}
	}
}

// TestBatchForwardZeroTaps is TestWorkspaceZeroTapFallback for the batch
// path: with zero taps present, oracle, per-row and batch agree bit for
// bit, on the assembly kernels where the platform has them and (through
// TestBitIdentityPortable) on the portable ones.
func TestBatchForwardZeroTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := PaperCNN(5)
	// Zero a few taps across the conv layers.
	for _, p := range net.Params() {
		if len(p.W)%3 == 0 && len(p.W) > 3 {
			p.W[0] = 0
			p.W[len(p.W)/2] = 0
		}
	}
	ws := NewWorkspace(net.CloneShared())
	xs := make([][]float64, 9)
	for i := range xs {
		xs[i] = randVec(rng, net.InputDim())
	}
	probs := ws.ProbsBatch(xs, nil)
	for i, x := range xs {
		bitsEqual(t, "zero-tap batch probs", probs[i], net.Probs(x))
		bitsEqual(t, "zero-tap per-row probs", ws.Probs(x), probs[i])
	}
}

// TestProbsBatchAllocFree pins the serving-path invariant: once the batch
// plan and the destination rows exist, repeated batched inference
// performs zero heap allocations.
func TestProbsBatchAllocFree(t *testing.T) {
	net := PaperCNN(3)
	ws := net.CloneShared().WS()
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = randVec(rng, net.InputDim())
	}
	var dst [][]float64
	dst = ws.ProbsBatch(xs, dst) // warm: builds the plan and dst rows
	allocs := testing.AllocsPerRun(50, func() {
		dst = ws.ProbsBatch(xs, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProbsBatch allocates %v allocs/op, want 0", allocs)
	}
	var preds []int
	preds = ws.PredictBatch(xs, preds)
	allocs = testing.AllocsPerRun(50, func() {
		preds = ws.PredictBatch(xs, preds)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictBatch allocates %v allocs/op, want 0", allocs)
	}
}
