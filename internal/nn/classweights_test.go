package nn

import (
	"context"
	"math/rand"
	"testing"
)

// imbalancedBlobs makes an 85/15 imbalanced two-cluster problem with
// overlap, so the unweighted model sacrifices the minority class.
func imbalancedBlobs(seed int64, n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		label := 0
		center := -0.3
		if i%7 != 0 { // ~86% majority class 1
			label = 1
			center = 0.3
		}
		v := make([]float64, 4)
		for j := range v {
			v[j] = center + rng.NormFloat64()*0.45
		}
		x[i] = v
		y[i] = label
	}
	return x, y
}

func TestClassWeightsShiftErrorTradeoff(t *testing.T) {
	x, y := imbalancedBlobs(3, 700)
	run := func(weights []float64) Metrics {
		net := SmallMLP(8, 4, 16, 2)
		tr := &Trainer{
			Epochs: 40, BatchSize: 32, Seed: 5, Workers: 1,
			ClassWeights: weights,
		}
		if _, err := tr.FitCtx(context.Background(), net, x, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		return Evaluate(net, x, y)
	}
	unweighted := run(nil)
	// Upweight the minority class (label 0 = "benign" here) 6x.
	weighted := run([]float64{6, 1})
	// Minority-class error (FPR with benign=0 convention: benign
	// misclassified) must drop when the minority is upweighted.
	if weighted.FPR >= unweighted.FPR {
		t.Errorf("minority error did not drop: unweighted FPR=%v weighted FPR=%v",
			unweighted.FPR, weighted.FPR)
	}
	// The trade: majority error may rise; overall accuracy stays sane.
	if weighted.Accuracy < 0.6 {
		t.Errorf("weighted accuracy collapsed: %v", weighted.Accuracy)
	}
}

func TestClassWeightsValidation(t *testing.T) {
	x, y := imbalancedBlobs(4, 40)
	net := SmallMLP(9, 4, 8, 2)
	tr := &Trainer{Epochs: 1, BatchSize: 8, ClassWeights: []float64{1}}
	if _, err := tr.FitCtx(context.Background(), net, x, y); err == nil {
		t.Error("Fit accepted too-short class weights")
	}
}
