package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"advmal/internal/ir"
	"advmal/internal/synth"
)

func hardenSamples(t *testing.T) []*synth.Sample {
	t.Helper()
	samples, err := synth.Generate(synth.Config{Seed: 5, NumBenign: 10, NumMal: 14})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestBuildFromSamplesSkipsCorruptSample is the acceptance check for
// graceful degradation: a corpus build containing one corrupt sample
// completes on the survivors, records the skip, and reports it in the
// Table I rendering.
func TestBuildFromSamplesSkipsCorruptSample(t *testing.T) {
	samples := hardenSamples(t)
	n := len(samples)
	samples[3] = &synth.Sample{
		Name:      "corrupt-sample",
		Malicious: true,
		Prog: &ir.Program{
			Name: "corrupt-sample",
			Code: []ir.Instr{{Op: ir.Jmp, A: 500}, {Op: ir.Ret}},
		},
	}

	cfg := DefaultConfig()
	cfg.NumBenign, cfg.NumMal, cfg.Epochs = 10, 14, 2
	sys := New(cfg)
	if err := sys.BuildFromSamples(context.Background(), samples); err != nil {
		t.Fatalf("build failed instead of skipping: %v", err)
	}
	if sys.Skips.Count() != 1 {
		t.Fatalf("skip count = %d, want 1 (%s)", sys.Skips.Count(), sys.Skips)
	}
	if got := sys.Data.Len(); got != n-1 {
		t.Fatalf("dataset has %d records, want %d", got, n-1)
	}
	out, err := sys.RenderTableI()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "skipped") || !strings.Contains(out, "corrupt-sample") {
		t.Fatalf("Table I does not report the skip:\n%s", out)
	}
	// The degraded corpus must still train and classify end to end.
	if _, err := sys.FitCtx(context.Background()); err != nil {
		t.Fatalf("training on the degraded corpus failed: %v", err)
	}
}

// TestBuildFromSamplesStrictMode checks StrictCorpus turns the same
// corrupt sample into a build failure naming the sample.
func TestBuildFromSamplesStrictMode(t *testing.T) {
	samples := hardenSamples(t)
	samples[3] = &synth.Sample{
		Name:      "corrupt-sample",
		Malicious: true,
		Prog: &ir.Program{
			Name: "corrupt-sample",
			Code: []ir.Instr{{Op: ir.Jmp, A: 500}, {Op: ir.Ret}},
		},
	}
	cfg := DefaultConfig()
	cfg.NumBenign, cfg.NumMal = 10, 14
	cfg.StrictCorpus = true
	sys := New(cfg)
	err := sys.BuildFromSamples(context.Background(), samples)
	if err == nil {
		t.Fatal("strict build accepted a corrupt sample")
	}
	if !strings.Contains(err.Error(), "corrupt-sample") || !errors.Is(err, ir.ErrBadTarget) {
		t.Fatalf("error does not identify the corrupt sample and cause: %v", err)
	}
}

// TestBuildCorpusCtxCancelled checks cancellation aborts the corpus
// build cleanly.
func TestBuildCorpusCtxCancelled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBenign, cfg.NumMal = 6, 6
	sys := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sys.BuildCorpusCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestClassifyMalformedProgram checks the trained-system classify path
// rejects invalid programs with an error rather than panicking.
func TestClassifyMalformedProgram(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBenign, cfg.NumMal, cfg.Epochs = 10, 14, 2
	sys := New(cfg)
	if err := sys.BuildCorpusCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	bad := &ir.Program{Name: "bad", Code: []ir.Instr{{Op: ir.Jmp, A: 77}, {Op: ir.Ret}}}
	if _, _, err := sys.Classify(bad); !errors.Is(err, ir.ErrBadTarget) {
		t.Fatalf("want ErrBadTarget, got %v", err)
	}
}
