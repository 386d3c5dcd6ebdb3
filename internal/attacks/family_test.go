package attacks

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"advmal/internal/nn"
)

var (
	famOnce sync.Once
	famNet  *nn.Network
	famX    [][]float64
	famY    []int
)

// familyModel returns a deterministic 6-class MLP trained on six
// well-separated clusters in the [0,1] box — class 0 standing in for
// benign, 1..5 for the malware families.
func familyModel(t *testing.T) (*nn.Network, [][]float64, []int) {
	t.Helper()
	famOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		const k, dim, perClass = 6, 8, 30
		famX = make([][]float64, 0, k*perClass)
		famY = make([]int, 0, k*perClass)
		for c := 0; c < k; c++ {
			center := 0.1 + 0.16*float64(c)
			for i := 0; i < perClass; i++ {
				v := make([]float64, dim)
				for j := range v {
					v[j] = center + rng.NormFloat64()*0.02
				}
				famX = append(famX, v)
				famY = append(famY, c)
			}
		}
		famNet = nn.SmallMLP(5, dim, 32, k)
		tr := &nn.Trainer{Epochs: 250, BatchSize: 16, Seed: 6, Workers: 1}
		if _, err := tr.FitCtx(context.Background(), famNet, famX, famY); err != nil {
			panic(err)
		}
	})
	acc := 0
	ws := famNet.WS()
	for i := range famX {
		if ws.Predict(famX[i]) == famY[i] {
			acc++
		}
	}
	if float64(acc)/float64(len(famX)) < 0.95 {
		t.Fatalf("family test model underfit: %d/%d", acc, len(famX))
	}
	return famNet, famX, famY
}

// TestSetTargetCoverage pins which attacks accept an explicit target:
// all but VAM (whose KL objective has no target class).
func TestSetTargetCoverage(t *testing.T) {
	for _, atk := range All() {
		ok := SetTarget(atk, 2)
		if atk.Name() == "VAM" {
			if ok {
				t.Error("VAM claims to support targeting")
			}
			continue
		}
		if !ok {
			t.Errorf("%s does not accept a target", atk.Name())
		}
		SetTarget(atk, -1) // reset to untargeted
	}
}

// TestTargetSelectorBinary pins the binary fast path: with a 2-class
// engine the untargeted target is the opposite class, bit-identical to
// the legacy behaviour, with no forced state leaking between calls.
func TestTargetSelectorBinary(t *testing.T) {
	net, x, y := trainedModel(t)
	var ts targetSelector
	for i := 0; i < 8; i++ {
		if got := ts.target(net.WS(), x[i], y[i]); got != opposite(y[i]) {
			t.Fatalf("sample %d: untargeted binary target %d, want %d", i, got, opposite(y[i]))
		}
	}
	ts.SetTarget(0)
	if got := ts.target(net.WS(), x[0], y[0]); got != 0 {
		t.Fatalf("forced target ignored: %d", got)
	}
	if got := ts.forcedTarget(); got != 0 {
		t.Fatalf("forcedTarget = %d, want 0", got)
	}
	ts.SetTarget(-1)
	if got := ts.forcedTarget(); got != -1 {
		t.Fatalf("reset did not clear the forced target: %d", got)
	}
}

// TestTargetSelectorRunnerUp checks the K-way untargeted choice: the
// highest non-true logit class.
func TestTargetSelectorRunnerUp(t *testing.T) {
	net, x, y := familyModel(t)
	var ts targetSelector
	for i := 0; i < len(x); i += 17 {
		got := ts.target(net.WS(), x[i], y[i])
		if got == y[i] {
			t.Fatalf("sample %d: untargeted target equals the true class", i)
		}
		logits := net.WS().Logits(x[i])
		for c := range logits {
			if c != y[i] && c != got && logits[c] > logits[got] {
				t.Fatalf("sample %d: target %d is not the runner-up (class %d has higher logit)", i, got, c)
			}
		}
	}
}

// TestEvaluateFamiliesShapes runs the K-way evaluation with one targeted
// and one untargeted attack and checks the result's structural
// contract: per-source rows for every class, a full source→target matrix
// for the targeted attack with an empty diagonal, nil for VAM.
func TestEvaluateFamiliesShapes(t *testing.T) {
	net, x, y := familyModel(t)
	atks := []Attack{NewFGSM(0.2), NewVAM(0.2, 0)}
	results, err := EvaluateFamiliesCtx(context.Background(), net, atks, x, y, Options{MaxSamples: 60, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	fgsm, vam := results[0], results[1]
	if fgsm.Classes != 6 || len(fgsm.Untargeted) != 6 {
		t.Fatalf("FGSM result shape: %+v", fgsm)
	}
	if vam.Targeted != nil {
		t.Fatal("VAM has a targeted matrix")
	}
	if fgsm.Targeted == nil {
		t.Fatal("FGSM has no targeted matrix")
	}
	totalMis := 0
	for s, row := range fgsm.Untargeted {
		if row.Source != s {
			t.Fatalf("row %d labeled %d", s, row.Source)
		}
		if row.MR < 0 || row.MR > 1 || row.EvasionRate < 0 || row.EvasionRate > 1 {
			t.Fatalf("row %d rates out of range: %+v", s, row)
		}
		if row.Evaded > row.Misclassified {
			t.Fatalf("row %d: evaded %d > misclassified %d", s, row.Evaded, row.Misclassified)
		}
		totalMis += row.Misclassified
	}
	if totalMis == 0 {
		t.Fatal("FGSM at eps 0.2 misclassified nothing — evaluation inert")
	}
	hits := 0
	for s := range fgsm.Targeted {
		for tc, cell := range fgsm.Targeted[s] {
			if s == tc && cell.Total != 0 {
				t.Fatalf("diagonal cell (%d,%d) populated: %+v", s, tc, cell)
			}
			hits += cell.Hits
		}
	}
	if hits == 0 {
		t.Fatal("targeted FGSM never hit a target class")
	}
}
