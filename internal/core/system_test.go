package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"advmal/internal/attacks"
	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/nn"
)

var (
	sysOnce   sync.Once
	sysShared *System
)

// smallSystem builds and trains a reduced pipeline once; tests share it
// read-only (except AdversarialTrain, which runs on its own system).
func smallSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.NumBenign = 60
		cfg.NumMal = 180
		cfg.Epochs = 40
		cfg.BatchSize = 24
		sysShared = New(cfg)
		if err := sysShared.BuildCorpusCtx(context.Background()); err != nil {
			panic(err)
		}
		if _, err := sysShared.FitCtx(context.Background()); err != nil {
			panic(err)
		}
	})
	return sysShared
}

func TestNewFillsDefaults(t *testing.T) {
	s := New(Config{})
	if s.Config.NumBenign != 276 || s.Config.NumMal != 2281 {
		t.Errorf("defaults = %d/%d, want Table I 276/2281", s.Config.NumBenign, s.Config.NumMal)
	}
	if s.Config.Epochs != 200 || s.Config.BatchSize != 100 {
		t.Errorf("trainer defaults = %d/%d, want 200/100", s.Config.Epochs, s.Config.BatchSize)
	}
	if s.Config.TestFraction != 0.2 {
		t.Errorf("test fraction = %v, want 0.2", s.Config.TestFraction)
	}
}

func TestLifecycleErrors(t *testing.T) {
	s := New(Config{NumBenign: 5, NumMal: 10})
	if _, err := s.FitCtx(context.Background()); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("FitCtx before build = %v, want ErrNotBuilt", err)
	}
	if _, err := s.EvaluateTest(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("EvaluateTest before fit = %v, want ErrNotTrained", err)
	}
	if _, err := s.RunTableIIICtx(context.Background(), attacks.Options{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("RunTableIIICtx before fit = %v, want ErrNotTrained", err)
	}
	if _, err := s.GEAPipeline(false); !errors.Is(err, ErrNotTrained) {
		t.Errorf("GEAPipeline before fit = %v, want ErrNotTrained", err)
	}
	if _, _, err := s.ClassifyVector(nil); !errors.Is(err, ErrNotTrained) {
		t.Errorf("ClassifyVector before fit = %v, want ErrNotTrained", err)
	}
	if _, err := s.ClassDistribution(); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("ClassDistribution before build = %v, want ErrNotBuilt", err)
	}
}

func TestBuildCorpusShapes(t *testing.T) {
	s := smallSystem(t)
	if s.Data.Len() != 240 {
		t.Errorf("corpus = %d, want 240", s.Data.Len())
	}
	if s.Train.Len()+s.Test.Len() != 240 {
		t.Error("split loses records")
	}
	if len(s.TrainX) != s.Train.Len() || len(s.TestX) != s.Test.Len() {
		t.Error("design matrices misaligned")
	}
	for _, x := range s.TrainX {
		if len(x) != features.NumFeatures {
			t.Fatalf("train vector has %d features", len(x))
		}
	}
	// Training vectors must lie inside the scaler's [0,1] box.
	v := features.NewValidator(1e-9)
	for i, x := range s.TrainX {
		if !v.Valid(features.Vector(x)) {
			t.Fatalf("train vector %d outside box", i)
		}
	}
}

func TestDetectorLearns(t *testing.T) {
	s := smallSystem(t)
	m, err := s.EvaluateTest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.85 {
		t.Errorf("test accuracy %v too low even for the reduced setup", m.Accuracy)
	}
}

func TestClassifyPipeline(t *testing.T) {
	s := smallSystem(t)
	sample := s.TestSamples()[0]
	pred, probs, err := s.Classify(sample.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("probs = %v", probs)
	}
	if sum := probs[0] + probs[1]; sum < 0.999 || sum > 1.001 {
		t.Errorf("probs sum to %v", sum)
	}
	if pred != nn.Argmax(probs) {
		t.Error("pred inconsistent with probs")
	}
	// Consistent with classifying the stored vector directly.
	rec := s.Test.Records[0]
	scaled, err := s.Scaler.Transform(rec.Raw)
	if err != nil {
		t.Fatal(err)
	}
	pred2, _, err := s.ClassifyVector(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if pred != pred2 {
		t.Error("Classify and ClassifyVector disagree")
	}
}

func TestClassDistributionRows(t *testing.T) {
	s := smallSystem(t)
	rows, err := s.ClassDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Count != 60 || rows[1].Count != 180 || rows[2].Count != 240 {
		t.Errorf("distribution = %+v", rows)
	}
}

func TestFeatureGroupsMatchTableII(t *testing.T) {
	groups := FeatureGroups()
	if len(groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Count
	}
	if total != 23 {
		t.Errorf("total = %d, want 23", total)
	}
}

func TestMirrorConvention(t *testing.T) {
	m := nn.Metrics{FNR: 0.1, FPR: 0.02, Accuracy: 0.97}
	got := mirrorConvention(m)
	if got.FNR != 0.02 || got.FPR != 0.1 || got.Accuracy != 0.97 {
		t.Errorf("mirrorConvention = %+v", got)
	}
}

func TestRunGEATablesSmall(t *testing.T) {
	s := smallSystem(t)
	rows, err := s.RunTableIVCtx(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table IV rows = %d, want 3", len(rows))
	}
	// Core shape claim of the paper: MR grows with target size and the
	// maximum-size benign target flips most malware. (The full-corpus
	// run in EXPERIMENTS.md reaches ~100%; this reduced system trains on
	// 240 samples for 40 epochs, so the bar here is looser.)
	if rows[2].MR < rows[0].MR {
		t.Errorf("MR not increasing with size: min %v > max %v", rows[0].MR, rows[2].MR)
	}
	if rows[2].MR < 0.6 {
		t.Errorf("max-target MR = %v, want the majority flipped", rows[2].MR)
	}
}

func TestRenderTables(t *testing.T) {
	s := smallSystem(t)
	tbl, err := s.RenderTableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TABLE I", "Benign", "Malicious", "Total"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t2 := RenderTableII()
	for _, want := range []string{"TABLE II", "Betweenness centrality", "23"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	t3 := RenderTableIII([]attacks.Result{{Attack: "FGSM", MR: 0.2584, AvgFG: 23}})
	for _, want := range []string{"TABLE III", "FGSM", "25.84"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
	t4 := RenderGEASize(false, []gea.Row{{Label: gea.SizeMinimum, TargetNodes: 2, MR: 0.0767}})
	for _, want := range []string{"TABLE IV:", "Minimum", "7.67"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
	t6 := RenderGEAFixed(false, []gea.Row{{TargetNodes: 8, TargetEdges: 7, MR: 0.1372}})
	for _, want := range []string{"TABLE VI:", "8", "7", "13.72"} {
		if !strings.Contains(t6, want) {
			t.Errorf("Table VI missing %q", want)
		}
	}
}

func TestSaveLoadDetector(t *testing.T) {
	s := smallSystem(t)
	var buf bytes.Buffer
	if err := s.Net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := nn.PaperCNN(999)
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := s.TestX[0]
	a, b := s.Net.WS().Logits(x), restored.WS().Logits(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored detector differs")
		}
	}
}
