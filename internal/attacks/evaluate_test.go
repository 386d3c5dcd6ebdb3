package attacks

import (
	"strings"
	"testing"
	"time"
)

func TestEligibleFiltersMisclassified(t *testing.T) {
	net, x, y := trainedModel(t)
	idx := Eligible(net.WS(), x, y, 0)
	for _, i := range idx {
		if net.WS().Predict(x[i]) != y[i] {
			t.Fatalf("Eligible returned misclassified sample %d", i)
		}
	}
	if len(idx) == 0 {
		t.Fatal("no eligible samples on an accurate model")
	}
}

func TestEligibleSubsampling(t *testing.T) {
	net, x, y := trainedModel(t)
	all := Eligible(net.WS(), x, y, 0)
	capped := Eligible(net.WS(), x, y, 10)
	if len(capped) != 10 {
		t.Fatalf("capped = %d, want 10", len(capped))
	}
	// Deterministic and sorted (evenly spaced over the eligible list).
	again := Eligible(net.WS(), x, y, 10)
	for i := range capped {
		if capped[i] != again[i] {
			t.Fatal("subsample not deterministic")
		}
	}
	if capped[0] != all[0] {
		t.Error("subsample should start at the first eligible sample")
	}
	if capped[len(capped)-1] <= capped[0] {
		t.Error("subsample not spread")
	}
	// Cap above population returns everything.
	if got := Eligible(net.WS(), x, y, len(all)+100); len(got) != len(all) {
		t.Errorf("over-cap returned %d, want %d", len(got), len(all))
	}
}

func TestEvaluateAggregates(t *testing.T) {
	net, x, y := trainedModel(t)
	results := Evaluate(net, []Attack{NewPGD(0, 5), NewFGSM(0)}, x, y,
		Options{MaxSamples: 20, Workers: 2})
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if r.Total != 20 {
			t.Errorf("%s: Total = %d, want 20", r.Attack, r.Total)
		}
		if r.MR < 0 || r.MR > 1 {
			t.Errorf("%s: MR = %v out of range", r.Attack, r.MR)
		}
		if r.Misclassified != r.MalToBen+r.BenToMal {
			t.Errorf("%s: direction counts %d+%d != %d",
				r.Attack, r.MalToBen, r.BenToMal, r.Misclassified)
		}
		if r.AvgCT <= 0 {
			t.Errorf("%s: AvgCT = %v", r.Attack, r.AvgCT)
		}
		if r.ValidRate != 1 {
			t.Errorf("%s: ValidRate = %v, want 1 (attacks clip to box)", r.Attack, r.ValidRate)
		}
		if r.AvgFG < 0 || r.AvgFG > float64(len(x[0])) {
			t.Errorf("%s: AvgFG = %v out of range", r.Attack, r.AvgFG)
		}
	}
	// PGD (40-step default reduced to 5 here) must beat or match FGSM.
	if results[0].MR < results[1].MR {
		t.Errorf("PGD MR %v < FGSM MR %v on identical samples", results[0].MR, results[1].MR)
	}
}

func TestEvaluateWorkerInvariance(t *testing.T) {
	net, x, y := trainedModel(t)
	a := Evaluate(net, []Attack{NewFGSM(0)}, x, y, Options{MaxSamples: 15, Workers: 1})
	b := Evaluate(net, []Attack{NewFGSM(0)}, x, y, Options{MaxSamples: 15, Workers: 3})
	if a[0].MR != b[0].MR || a[0].AvgFG != b[0].AvgFG || a[0].Misclassified != b[0].Misclassified {
		t.Errorf("results differ across worker counts: %+v vs %+v", a[0], b[0])
	}
}

func TestResultString(t *testing.T) {
	r := Result{Attack: "FGSM", MR: 0.2584, AvgFG: 23, AvgCT: 370 * time.Microsecond, Total: 100, ValidRate: 1}
	s := r.String()
	for _, want := range []string{"FGSM", "25.84", "23.00", "0.370"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
