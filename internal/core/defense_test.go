package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"advmal/internal/attacks"
)

func TestAdversarialTrainRequiresTraining(t *testing.T) {
	s := New(Config{NumBenign: 5, NumMal: 10})
	if _, err := s.AdversarialTrain(AdversarialTrainOptions{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
}

func TestAdversarialTrainImprovesRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two detectors")
	}
	cfg := DefaultConfig()
	cfg.NumBenign = 50
	cfg.NumMal = 150
	cfg.Epochs = 30
	cfg.BatchSize = 25
	s := New(cfg)
	if err := s.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	opts := attacks.Options{MaxSamples: 15}
	probe := []attacks.Attack{attacks.NewPGD(0.1, 10)}
	before, err := attacks.EvaluateCtx(context.Background(), s.Net, probe, s.TestX, s.TestY, opts)
	if err != nil {
		t.Fatal(err)
	}

	hist, err := s.AdversarialTrain(AdversarialTrainOptions{
		Attack: attacks.NewPGD(0.1, 10),
		Epochs: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Loss) == 0 {
		t.Fatal("no retraining happened")
	}
	after, err := attacks.EvaluateCtx(context.Background(), s.Net, probe, s.TestX, s.TestY, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Online adversarial training against the probe attack must reduce
	// its misclassification rate.
	if after[0].MR >= before[0].MR && before[0].MR > 0.2 {
		t.Errorf("PGD MR did not drop: %v -> %v", before[0].MR, after[0].MR)
	}
	m, err := s.EvaluateTest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.7 {
		t.Errorf("clean accuracy collapsed to %v", m.Accuracy)
	}
}

func TestRunAllOnSharedSystem(t *testing.T) {
	s := smallSystem(t)
	rep, err := s.RunAllCtx(context.Background(), RunAllOptions{Attacks: attacks.Options{MaxSamples: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumBenign != 60 || rep.NumMal != 180 {
		t.Errorf("Table I counts %d/%d", rep.NumBenign, rep.NumMal)
	}
	if len(rep.TableIII) != 8 {
		t.Errorf("Table III rows = %d, want 8", len(rep.TableIII))
	}
	if len(rep.TableIV) != 3 || len(rep.TableV) != 3 {
		t.Errorf("size tables = %d/%d rows, want 3/3", len(rep.TableIV), len(rep.TableV))
	}
	// The reduced 60-benign corpus may lack full 3x3 benign groups; the
	// runner degrades to smaller shapes but must produce rows.
	if len(rep.TableVI) < 4 {
		t.Errorf("Table VI rows = %d, want >= 4 after degradation", len(rep.TableVI))
	}
	if len(rep.TableVII) < 3 {
		t.Errorf("Table VII rows = %d, want >= 3 after degradation", len(rep.TableVII))
	}
	// Paper-convention mirror swaps the two error rates.
	if rep.PaperConvention.FNR != rep.Detector.FPR || rep.PaperConvention.FPR != rep.Detector.FNR {
		t.Error("paper-convention metrics not mirrored")
	}
	out := s.Render(rep)
	for _, want := range []string{"TABLE I", "TABLE III", "TABLE VII"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}
