package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"advmal/internal/nn"
	"advmal/internal/synth"
)

var (
	famOnce   sync.Once
	famShared *System
	famHist   *nn.History
)

// smallFamilySystem is smallSystem with the family head: the same
// reduced corpus and trainer settings, Classes = NumFamilyClasses. It is
// built and trained once; tests share it read-only.
func smallFamilySystem(t *testing.T) (*System, *nn.History) {
	t.Helper()
	famOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.NumBenign = 60
		cfg.NumMal = 180
		cfg.Epochs = 40
		cfg.BatchSize = 24
		cfg.Classes = NumFamilyClasses
		famShared = New(cfg)
		if err := famShared.BuildCorpusCtx(context.Background()); err != nil {
			panic(err)
		}
		var err error
		if famHist, err = famShared.FitCtx(context.Background()); err != nil {
			panic(err)
		}
	})
	return famShared, famHist
}

func TestFamilyHead(t *testing.T) {
	s, hist := smallFamilySystem(t)
	if len(hist.Loss) == 0 {
		t.Fatal("no training history")
	}
	if s.Net.NumClasses() != 6 {
		t.Errorf("logits = %d, want benign + 5 malware families", s.Net.NumClasses())
	}
	if ClassName(0, s.Net.NumClasses()) != synth.Benign.String() {
		t.Errorf("class 0 = %s, want benign", ClassName(0, s.Net.NumClasses()))
	}

	m, err := s.EvaluateFamilyHead()
	if err != nil {
		t.Fatal(err)
	}
	if m.N != s.Test.Len() {
		t.Errorf("evaluated %d, want %d", m.N, s.Test.Len())
	}
	// Family classification is harder than binary, but must beat the
	// 1/6 random baseline decisively on structurally distinct families.
	if m.Accuracy < 0.4 {
		t.Errorf("family accuracy %v, want well above random (0.167)", m.Accuracy)
	}
	// Confusion matrix row sums must equal the per-family test counts.
	for c, row := range m.Confusion {
		sum := 0
		for _, v := range row {
			sum += v
		}
		count := 0
		for _, r := range s.Test.Records {
			if ClassOf(r.Sample.Family) == c {
				count++
			}
		}
		if sum != count {
			t.Errorf("confusion row %s sums to %d, want %d", ClassName(c, len(m.Confusion)), sum, count)
		}
	}
	// Rendering mentions every family.
	out := m.String()
	for _, f := range familyLabels() {
		if !strings.Contains(out, f.String()) {
			t.Errorf("metrics output missing %v", f)
		}
	}
}

func TestEvaluateFamilyHeadRequiresTraining(t *testing.T) {
	s := New(Config{NumBenign: 5, NumMal: 10, Classes: NumFamilyClasses})
	if _, err := s.EvaluateFamilyHead(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("EvaluateFamilyHead err = %v, want ErrNotTrained", err)
	}
}
