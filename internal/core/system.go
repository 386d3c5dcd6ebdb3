// Package core wires the substrates into the end-to-end system the paper
// evaluates: synthetic corpus -> disassembly -> CFG features -> min-max
// scaling -> CNN detector, plus entry points for the adversarial
// evaluation (generic attacks and GEA).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"advmal/internal/dataset"
	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// Lifecycle errors.
var (
	// ErrNotBuilt indicates a System method that requires BuildCorpusCtx first.
	ErrNotBuilt = errors.New("core: corpus not built")
	// ErrNotTrained indicates a System method that requires FitCtx first.
	ErrNotTrained = errors.New("core: detector not trained")
)

// Config controls the full pipeline. DefaultConfig reproduces the paper's
// setup.
type Config struct {
	// Seed drives corpus generation, splitting, weight init, and dropout.
	Seed int64
	// Corpus sizes; zero values are replaced by Table I counts.
	NumBenign int
	NumMal    int
	// TestFraction of each class held out for evaluation and attacks.
	TestFraction float64
	// Classes is the softmax head width. 0 or 2 trains the paper's
	// binary detector (labels are dataset.LabelBenign/LabelMalware —
	// the legacy path, bit-identical to pre-family builds);
	// NumFamilyClasses trains the 6-way family head, labeling each
	// sample with ClassOf(its family). Other widths are rejected by
	// FitCtx.
	Classes int
	// Epochs / BatchSize follow the paper (200 / 100). EarlyStopLoss
	// stops training once converged (the synthetic corpus converges long
	// before 200 epochs); 0 disables early stopping.
	Epochs        int
	BatchSize     int
	EarlyStopLoss float64
	// Workers is the data-parallel width for feature extraction and
	// training; 0 = GOMAXPROCS.
	Workers int
	// Verbose, when non-nil, receives training progress.
	Verbose io.Writer
	// StrictCorpus fails the corpus build on the first bad sample instead
	// of the default skip-and-report behaviour, where a sample that fails
	// to disassemble or panics inside a stage is isolated, recorded in
	// System.Skips, and the build completes on the survivors.
	StrictCorpus bool
}

// DefaultConfig returns the paper's configuration: Table I corpus, an
// 80/20 stratified split, and the Fig. 5 CNN trained with batch size 100
// for up to 200 epochs (with early stopping once the loss converges).
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		NumBenign:     276,
		NumMal:        2281,
		TestFraction:  0.2,
		Epochs:        200,
		BatchSize:     100,
		EarlyStopLoss: 0.015,
	}
}

// System is the trained IoT malware detection system under attack.
type System struct {
	Config  Config
	Samples []*synth.Sample
	Data    *dataset.Dataset
	Train   *dataset.Dataset
	Test    *dataset.Dataset
	Scaler  *features.Scaler
	Net     *nn.Network
	// Extractor is the fused-sweep feature engine with its content-keyed
	// cache, shared by the corpus build, classification, and every GEA
	// pipeline derived from this system so repeated candidate graphs are
	// extracted once. New installs one; nil falls back to the
	// process-wide features.Shared extractor.
	Extractor *features.Extractor
	// Skips records the samples isolated during the corpus build; nil
	// until BuildCorpusCtx runs. Its count is surfaced in the Table I report.
	Skips *dataset.SkipReport

	// Scaled design matrices, aligned with Train/Test record order.
	TrainX [][]float64
	TrainY []int
	TestX  [][]float64
	TestY  []int
}

// New returns an unbuilt System with cfg (zero counts replaced by Table I).
func New(cfg Config) *System {
	def := DefaultConfig()
	if cfg.NumBenign == 0 {
		cfg.NumBenign = def.NumBenign
	}
	if cfg.NumMal == 0 {
		cfg.NumMal = def.NumMal
	}
	if cfg.TestFraction == 0 {
		cfg.TestFraction = def.TestFraction
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = def.BatchSize
	}
	return &System{Config: cfg, Extractor: features.NewExtractor(0)}
}

// BuildCorpusCtx generates the corpus, extracts features, splits, and
// fits the scaler on the training split. Unless Config.StrictCorpus is
// set, bad samples are isolated and skipped (see BuildFromSamples).
func (s *System) BuildCorpusCtx(ctx context.Context) error {
	samples, err := synth.Generate(synth.Config{
		Seed:      s.Config.Seed,
		NumBenign: s.Config.NumBenign,
		NumMal:    s.Config.NumMal,
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return s.BuildFromSamples(ctx, samples)
}

// BuildFromSamples assembles the corpus from an explicit (possibly
// untrusted) sample set: extracts features, splits, and fits the scaler
// on the training split. Unless Config.StrictCorpus is set, a sample that
// fails to disassemble or panics inside a stage is isolated, recorded in
// System.Skips, and the build completes on the surviving samples.
func (s *System) BuildFromSamples(ctx context.Context, samples []*synth.Sample) error {
	s.Samples = samples
	ds, skips, err := dataset.FromSamplesCtx(ctx, samples, dataset.Options{
		Workers:   s.Config.Workers,
		SkipBad:   !s.Config.StrictCorpus,
		Extractor: s.Extractor,
	})
	s.Skips = skips
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.Data = ds
	train, test, err := ds.Split(s.Config.TestFraction, s.Config.Seed+1)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.Train, s.Test = train, test
	s.Scaler = &features.Scaler{}
	if err := s.Scaler.Fit(train.RawVectors()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.TrainX, s.TrainY, err = s.designMatrix(train); err != nil {
		return err
	}
	if s.TestX, s.TestY, err = s.designMatrix(test); err != nil {
		return err
	}
	return nil
}

// Classes resolves the configured head width (0 means the binary
// default).
func (s *System) Classes() int {
	if s.Config.Classes == 0 {
		return nn.PaperClasses
	}
	return s.Config.Classes
}

func (s *System) designMatrix(ds *dataset.Dataset) ([][]float64, []int, error) {
	x := make([][]float64, ds.Len())
	y := make([]int, ds.Len())
	family := s.Classes() > 2
	for i, r := range ds.Records {
		v, err := s.Scaler.Transform(r.Raw)
		if err != nil {
			return nil, nil, fmt.Errorf("core: scaling %q: %w", r.Sample.Name, err)
		}
		x[i] = v
		if family {
			y[i] = ClassOf(r.Sample.Family)
		} else {
			y[i] = r.Label
		}
	}
	return x, y, nil
}

// FitCtx trains the Fig. 5 CNN on the training split, checking ctx
// between batches so training can be cancelled or time-boxed.
func (s *System) FitCtx(ctx context.Context) (*nn.History, error) {
	if s.Train == nil {
		return nil, ErrNotBuilt
	}
	classes := s.Classes()
	if classes != nn.PaperClasses && classes != NumFamilyClasses {
		return nil, fmt.Errorf("core: fit: unsupported head width %d (want %d or %d)",
			classes, nn.PaperClasses, NumFamilyClasses)
	}
	s.Net = nn.PaperCNNClasses(s.Config.Seed+7, classes)
	trainer := &nn.Trainer{
		Epochs:        s.Config.Epochs,
		BatchSize:     s.Config.BatchSize,
		Seed:          s.Config.Seed + 13,
		Workers:       s.Config.Workers,
		EarlyStopLoss: s.Config.EarlyStopLoss,
		Verbose:       s.Config.Verbose,
	}
	hist, err := trainer.FitCtx(ctx, s.Net, s.TrainX, s.TrainY)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return hist, nil
}

// EvaluateTest returns the paper's §IV-C1 metrics on the held-out split.
func (s *System) EvaluateTest() (nn.Metrics, error) {
	if s.Net == nil {
		return nn.Metrics{}, ErrNotTrained
	}
	return nn.Evaluate(s.Net, s.TestX, s.TestY), nil
}

// EvaluateTrain returns metrics on the training split.
func (s *System) EvaluateTrain() (nn.Metrics, error) {
	if s.Net == nil {
		return nn.Metrics{}, ErrNotTrained
	}
	return nn.Evaluate(s.Net, s.TrainX, s.TrainY), nil
}

// Classify runs the full pipeline on one untrusted program: disassemble,
// extract the 23 features, scale, and apply the CNN. It returns the
// predicted label and the softmax probabilities. Faults anywhere in the
// pipeline — including a panic inside a network layer — come back as
// errors, never crashes.
func (s *System) Classify(prog *ir.Program) (int, []float64, error) {
	if s.Net == nil {
		return 0, nil, ErrNotTrained
	}
	cfg, err := ir.Disassemble(prog)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	raw := s.Extractor.Extract(cfg.G())
	v, err := s.Scaler.Transform(raw)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	return s.ClassifyVector(v)
}

// ClassifyVector applies the CNN to an already scaled feature vector,
// with the layer-panic boundary applied (untrusted vectors error out
// instead of crashing a serving process).
func (s *System) ClassifyVector(v features.Vector) (int, []float64, error) {
	if s.Net == nil {
		return 0, nil, ErrNotTrained
	}
	// The workspace SafeProbs validates the dimension, recovers layer
	// panics, and returns a fresh slice (never its internal buffers), so
	// serving stays allocation-light and callers may retain the result.
	probs, err := s.Net.WS().SafeProbs(v)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	return nn.Argmax(probs), probs, nil
}
