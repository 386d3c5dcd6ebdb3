package attacks

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestTrainSubstituteImitatesVictim(t *testing.T) {
	victim, x, _ := trainedModel(t)
	sub, err := TrainSubstituteCtx(context.Background(), victim, x, TransferConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, xi := range x {
		if sub.WS().Predict(xi) == victim.WS().Predict(xi) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(x)); frac < 0.95 {
		t.Errorf("substitute agrees on %.0f%%, want >= 95%%", frac*100)
	}
}

func TestTrainSubstituteNoQueries(t *testing.T) {
	victim, _, _ := trainedModel(t)
	if _, err := TrainSubstituteCtx(context.Background(), victim, nil, TransferConfig{}); !errors.Is(err, ErrNoQueries) {
		t.Errorf("err = %v, want ErrNoQueries", err)
	}
}

func TestTransferEvaluate(t *testing.T) {
	victim, x, y := trainedModel(t)
	// Query set: first half; attack targets: second half.
	queries := x[:len(x)/2]
	testX, testY := x[len(x)/2:], y[len(y)/2:]
	results, err := TransferEvaluateCtx(context.Background(), victim,
		[]Attack{NewPGD(0, 10), NewFGSM(0)},
		queries, testX, testY,
		TransferConfig{Seed: 7, MaxSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Total != 20 {
			t.Errorf("%s: total = %d", r.Attack, r.Total)
		}
		if r.SubstituteMR < 0 || r.SubstituteMR > 1 || r.VictimMR < 0 || r.VictimMR > 1 {
			t.Errorf("%s: rates out of range: %+v", r.Attack, r)
		}
		// Transfer can lose effectiveness but the substitute itself must
		// be fooled by its own white-box attack on this easy problem.
		if r.SubstituteMR < 0.5 {
			t.Errorf("%s: substitute MR = %v, want majority fooled", r.Attack, r.SubstituteMR)
		}
		if r.SubstituteAcc < 0.9 {
			t.Errorf("%s: agreement = %v", r.Attack, r.SubstituteAcc)
		}
	}
	// Transfer loses effectiveness (the substitute's decision surface
	// extrapolates differently off the data manifold) — the black-box
	// rate must not exceed the white-box rate on the substitute itself.
	for _, r := range results {
		if r.VictimMR > r.SubstituteMR {
			t.Errorf("%s: victim MR %v exceeds substitute MR %v",
				r.Attack, r.VictimMR, r.SubstituteMR)
		}
	}
}

func TestTransferResultString(t *testing.T) {
	r := TransferResult{Attack: "PGD", SubstituteMR: 1, VictimMR: 0.75, Total: 20, SubstituteAcc: 0.97}
	s := r.String()
	for _, want := range []string{"PGD", "100.00", "75.00", "97.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
