package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

func TestClassMapping(t *testing.T) {
	if NumFamilyClasses != len(synth.MalwareFamilies())+1 {
		t.Fatalf("NumFamilyClasses = %d, want benign + %d families",
			NumFamilyClasses, len(synth.MalwareFamilies()))
	}
	if got := ClassOf(synth.Benign); got != 0 {
		t.Fatalf("ClassOf(Benign) = %d, want 0", got)
	}
	for _, fam := range synth.MalwareFamilies() {
		c := ClassOf(fam)
		if c <= 0 || c >= NumFamilyClasses {
			t.Fatalf("ClassOf(%s) = %d out of range", fam, c)
		}
		if ClassName(c, NumFamilyClasses) != fam.String() {
			t.Fatalf("ClassName(%d) = %q, want %q", c, ClassName(c, NumFamilyClasses), fam)
		}
	}
	if ClassName(1, 2) != "malware" || ClassName(0, 2) != "benign" {
		t.Fatal("binary class names changed")
	}
	if got := len(ClassLabels(NumFamilyClasses)); got != NumFamilyClasses {
		t.Fatalf("ClassLabels length %d", got)
	}
}

// TestBinaryClassesBitIdentical pins the back-compat contract of the
// multi-class head: requesting Classes=2 explicitly must run the exact
// legacy binary path — same seed, same corpus, bit-identical weights.
func TestBinaryClassesBitIdentical(t *testing.T) {
	train := func(classes int) *System {
		cfg := DefaultConfig()
		cfg.NumBenign = 24
		cfg.NumMal = 48
		cfg.Epochs = 8
		cfg.BatchSize = 16
		cfg.Classes = classes
		s := New(cfg)
		if err := s.BuildCorpusCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	legacy := train(0)
	explicit := train(2)
	lp, ep := legacy.Net.Params(), explicit.Net.Params()
	if len(lp) != len(ep) {
		t.Fatalf("param count %d vs %d", len(lp), len(ep))
	}
	for i := range lp {
		if lp[i].Name != ep[i].Name {
			t.Fatalf("param %d: %q vs %q", i, lp[i].Name, ep[i].Name)
		}
		for j := range lp[i].W {
			if lp[i].W[j] != ep[i].W[j] {
				t.Fatalf("param %q[%d]: %v vs %v — Classes=2 diverged from the legacy path",
					lp[i].Name, j, lp[i].W[j], ep[i].W[j])
			}
		}
	}
}

// TestFamilyCollapseMatchesBinary is the family-head acceptance pin: on
// the same reduced corpus, collapsing the 6-class head's predictions to
// malicious-vs-benign must reproduce the binary detector's Table I
// operating point within 0.5pp accuracy.
func TestFamilyCollapseMatchesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two detectors; skipped in -short")
	}
	cfg := DefaultConfig()
	cfg.NumBenign = 100
	cfg.NumMal = 300
	cfg.Epochs = 120
	cfg.BatchSize = 32
	binary := New(cfg)
	if err := binary.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := binary.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	bm, err := binary.EvaluateTest()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Classes = NumFamilyClasses
	fam := New(cfg)
	if err := fam.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fam.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	fm, err := fam.EvaluateFamilyHead()
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Confusion) != NumFamilyClasses {
		t.Fatalf("confusion matrix is %d-wide", len(fm.Confusion))
	}
	collapsed := fm.Collapse()
	if collapsed.N != bm.N {
		t.Fatalf("split sizes diverge: %d vs %d", collapsed.N, bm.N)
	}
	if delta := math.Abs(collapsed.Accuracy - bm.Accuracy); delta > 0.005 {
		t.Fatalf("collapsed family accuracy %.4f vs binary %.4f — delta %.4f exceeds 0.5pp",
			collapsed.Accuracy, bm.Accuracy, delta)
	}
	// The collapsed view must agree with the family head's own binary
	// evaluation (nn.Evaluate collapses K-way predictions internally).
	fm2, err := fam.EvaluateTest()
	if err != nil {
		t.Fatal(err)
	}
	if fm2.Accuracy != collapsed.Accuracy {
		t.Fatalf("EvaluateTest %.6f and Collapse %.6f disagree on the same net",
			fm2.Accuracy, collapsed.Accuracy)
	}
}

// TestLoadModelHeadWidthMismatch is the regression test for the envelope
// validation: a file whose class label disagrees with the decoded head
// width must be rejected at load with a descriptive error, not served.
func TestLoadModelHeadWidthMismatch(t *testing.T) {
	min := make([]float64, features.NumFeatures)
	max := make([]float64, features.NumFeatures)
	for i := range max {
		max[i] = 1
	}
	m := &Model{
		Version: 1,
		Scaler:  &features.Scaler{Min: min, Max: max},
		Net:     nn.PaperCNNClasses(0, 2),
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Sanity: the untampered file loads, with the width recovered from
	// the weight blob.
	good, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if good.Classes != 2 || good.Net.NumClasses() != 2 {
		t.Fatalf("loaded classes %d/%d, want 2", good.Classes, good.Net.NumClasses())
	}

	// Relabel the envelope to claim a family head over binary weights.
	var env modelEnvelope
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Classes = NumFamilyClasses
	var tampered bytes.Buffer
	if err := gob.NewEncoder(&tampered).Encode(env); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&tampered); err == nil {
		t.Fatal("LoadModel accepted an envelope whose class label disagrees with the weights")
	} else if !strings.Contains(err.Error(), "refusing mismatched") {
		t.Fatalf("mismatch error not descriptive: %v", err)
	}

	// An unsupported width (neither 2 nor NumFamilyClasses) is rejected
	// even when the envelope and blob agree.
	odd := &Model{
		Version: 1,
		Scaler:  &features.Scaler{Min: min, Max: max},
		Net:     nn.PaperCNNClasses(0, 3),
	}
	var oddBuf bytes.Buffer
	if err := odd.Save(&oddBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&oddBuf); err == nil {
		t.Fatal("LoadModel accepted an unsupported head width")
	} else if !strings.Contains(err.Error(), "unsupported head width") {
		t.Fatalf("width error not descriptive: %v", err)
	}
}
