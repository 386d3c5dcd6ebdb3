package nn

import (
	"context"
	"math"
	"testing"
)

func TestROCOnSeparableData(t *testing.T) {
	x, y := blobs(11, 200, 4)
	net := SmallMLP(12, 4, 16, 2)
	tr := &Trainer{Epochs: 30, BatchSize: 20, Seed: 13, Workers: 1}
	if _, err := tr.FitCtx(context.Background(), net, x, y); err != nil {
		t.Fatal(err)
	}
	curve := ROC(net, x, y)
	if len(curve) < 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Errorf("curve starts at (%v,%v), want (0,0)", first.FPR, first.TPR)
	}
	if math.Abs(last.FPR-1) > 1e-12 || math.Abs(last.TPR-1) > 1e-12 {
		t.Errorf("curve ends at (%v,%v), want (1,1)", last.FPR, last.TPR)
	}
	// Monotone nondecreasing in both coordinates.
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if auc := AUC(curve); auc < 0.99 {
		t.Errorf("AUC = %v on a separable problem, want ~1", auc)
	}
}

func TestAUCRandomScorer(t *testing.T) {
	// An untrained (random) scorer on balanced data should sit near 0.5.
	x, y := blobs(14, 400, 4)
	// Scramble labels so scores carry no signal.
	for i := range y {
		y[i] = (i / 2) % 2
	}
	net := SmallMLP(15, 4, 8, 2)
	auc := DetectorAUC(net, x, y)
	if auc < 0.3 || auc > 0.7 {
		t.Errorf("random AUC = %v, want near 0.5", auc)
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	curve := []ROCPoint{{0, 0, 1}, {0, 1, 0.5}, {1, 1, 0}}
	if auc := AUC(curve); auc != 1 {
		t.Errorf("perfect AUC = %v", auc)
	}
	curve = []ROCPoint{{0, 0, 1}, {1, 0, 0.5}, {1, 1, 0}}
	if auc := AUC(curve); auc != 0 {
		t.Errorf("inverted AUC = %v", auc)
	}
}

func TestROCEmpty(t *testing.T) {
	net := SmallMLP(16, 2, 4, 2)
	curve := ROC(net, nil, nil)
	if len(curve) != 1 {
		t.Errorf("empty ROC = %d points", len(curve))
	}
	if auc := AUC(curve); auc != 0 {
		t.Errorf("empty AUC = %v", auc)
	}
}
