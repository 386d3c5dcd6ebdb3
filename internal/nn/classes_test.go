package nn

import (
	"math/rand"
	"testing"
)

// TestPaperCNNClassesBinaryIdentity pins that the K-way constructor at
// K=2 is the legacy binary constructor: same seed, same RNG consumption,
// bit-identical initialization.
func TestPaperCNNClassesBinaryIdentity(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		a, b := PaperCNN(seed), PaperCNNClasses(seed, 2)
		ap, bp := a.Params(), b.Params()
		if len(ap) != len(bp) {
			t.Fatalf("seed %d: param count %d vs %d", seed, len(ap), len(bp))
		}
		for i := range ap {
			if ap[i].Name != bp[i].Name || len(ap[i].W) != len(bp[i].W) {
				t.Fatalf("seed %d: param %d shape mismatch (%s/%d vs %s/%d)",
					seed, i, ap[i].Name, len(ap[i].W), bp[i].Name, len(bp[i].W))
			}
			for j := range ap[i].W {
				if ap[i].W[j] != bp[i].W[j] {
					t.Fatalf("seed %d: %s[%d] differs", seed, ap[i].Name, j)
				}
			}
		}
	}
}

// TestPaperCNNClassesHeadWidth checks the K-way head's shape and that
// training on K-way labels moves every logit column.
func TestPaperCNNClassesHeadWidth(t *testing.T) {
	const k = 6
	net := PaperCNNClasses(1, k)
	if net.NumClasses() != k {
		t.Fatalf("NumClasses = %d, want %d", net.NumClasses(), k)
	}
	dim := net.InputDim()
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64()
	}
	logits := net.WS().Logits(x)
	if len(logits) != k {
		t.Fatalf("logits length %d, want %d", len(logits), k)
	}
	probs := SoftmaxInto(make([]float64, k), logits)
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax sum %v", sum)
	}
}

// TestEvaluateCollapsesFamilyHead pins that Evaluate folds K-way
// predictions and labels onto the binary detection axis instead of
// indexing out of its 2×2 confusion matrix.
func TestEvaluateCollapsesFamilyHead(t *testing.T) {
	net := PaperCNNClasses(3, 6)
	dim := net.InputDim()
	rng := rand.New(rand.NewSource(4))
	n := 12
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = i % 6 // family class labels, not binary
	}
	m := Evaluate(net, x, y)
	if m.N != n {
		t.Fatalf("N = %d, want %d", m.N, n)
	}
	total := 0
	for _, row := range m.Confusion {
		for _, v := range row {
			total += v
		}
	}
	if total != n {
		t.Fatalf("confusion total %d, want %d — K-way predictions not collapsed", total, n)
	}
}
