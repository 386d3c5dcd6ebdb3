package advmal_test

import (
	"context"
	"testing"

	"advmal"
)

func TestFacadeDefaults(t *testing.T) {
	cfg := advmal.DefaultConfig()
	if cfg.NumBenign != 276 || cfg.NumMal != 2281 {
		t.Errorf("DefaultConfig corpus = %d/%d, want Table I", cfg.NumBenign, cfg.NumMal)
	}
	if cfg.Epochs != 200 || cfg.BatchSize != 100 {
		t.Errorf("DefaultConfig trainer = %d/%d, want 200/100", cfg.Epochs, cfg.BatchSize)
	}
}

func TestFacadeAllAttacks(t *testing.T) {
	atks := advmal.AllAttacks()
	if len(atks) != 8 {
		t.Fatalf("AllAttacks = %d, want the paper's 8", len(atks))
	}
}

func TestFacadeSystemLifecycle(t *testing.T) {
	cfg := advmal.DefaultConfig()
	cfg.NumBenign = 10
	cfg.NumMal = 20
	cfg.Epochs = 2
	cfg.BatchSize = 8
	sys := advmal.NewSystem(cfg)
	if err := sys.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var m advmal.Metrics
	m, err := sys.EvaluateTest()
	if err != nil {
		t.Fatal(err)
	}
	if m.N == 0 {
		t.Error("no test samples evaluated")
	}
	var samples []*advmal.Sample = sys.TestSamples()
	if len(samples) == 0 {
		t.Error("no test samples exposed")
	}
}
