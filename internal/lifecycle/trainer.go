package lifecycle

import (
	"context"
	"fmt"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// Trainer turns one labeled window into a candidate Model. Training runs
// on the deterministic data-parallel runtime (nn.Trainer's tree-ordered
// gradient reduction), so the same window and seed always produce the
// same candidate — canary verdicts are reproducible.
type Trainer struct {
	// Seed drives splitting, weight init, and dropout.
	Seed int64
	// Epochs and BatchSize bound the candidate fit. Defaults 30 / 32 —
	// retraining windows are small and fresh candidates converge fast.
	Epochs    int
	BatchSize int
	// Workers is the extraction + training parallelism; 0 = GOMAXPROCS.
	Workers int
	// TestFraction is held out of the window as the canary holdout.
	// Default 0.25.
	TestFraction float64
	// Extractor, when non-nil, is shared with the live model so the
	// content-keyed feature cache stays warm across retraining cycles.
	// Feature extraction is model-independent, so sharing is safe.
	Extractor *features.Extractor
	// WarmStart, when non-nil, initializes the candidate's weights from
	// this network (deep copy — training never touches the source). The
	// retraining loop warm-starts from the live model so candidates
	// refine rather than relearn.
	WarmStart *nn.Network
	// Classes is the candidate's softmax head width: 2 (or 0, the
	// default) for the binary detector, core.NumFamilyClasses for the
	// family head. The retraining loop sets it from the live model so a
	// hot swap never changes the serving head width mid-flight.
	Classes int
}

// Candidate is a trained-but-not-yet-trusted model plus the raw holdout
// the canary gates judge it on.
type Candidate struct {
	Model *core.Model
	// HoldX is the RAW (unscaled) holdout design matrix; each canary
	// participant scales it with its own scaler.
	HoldX [][]float64
	HoldY []int
	// Window echoes the training window size after bad-sample skips.
	Window int
}

// Train fits one candidate on the window and snapshots it.
func (t *Trainer) Train(ctx context.Context, samples []*synth.Sample) (*Candidate, error) {
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 30
	}
	batch := t.BatchSize
	if batch <= 0 {
		batch = 32
	}
	frac := t.TestFraction
	if frac <= 0 {
		frac = 0.25
	}
	classes := t.Classes
	if classes == 0 {
		classes = nn.PaperClasses
	}
	if t.WarmStart != nil && t.WarmStart.NumClasses() != classes {
		return nil, fmt.Errorf("lifecycle: warm start has %d classes, trainer wants %d",
			t.WarmStart.NumClasses(), classes)
	}
	sys := core.New(core.Config{
		Seed:         t.Seed,
		NumBenign:    1, // sizes come from the explicit sample set
		NumMal:       1,
		TestFraction: frac,
		Epochs:       epochs,
		BatchSize:    batch,
		Workers:      t.Workers,
		Classes:      classes,
	})
	if t.Extractor != nil {
		sys.Extractor = t.Extractor
	}
	if err := sys.BuildFromSamples(ctx, samples); err != nil {
		return nil, fmt.Errorf("lifecycle: building window corpus: %w", err)
	}
	if t.WarmStart == nil {
		if _, err := sys.FitCtx(ctx); err != nil {
			return nil, fmt.Errorf("lifecycle: training candidate: %w", err)
		}
	} else {
		// Warm start: same architecture seeded fresh, then overwrite with
		// a private copy of the live weights before fitting.
		sys.Net = nn.PaperCNNClasses(t.Seed+7, classes)
		if err := t.WarmStart.CloneInto(sys.Net); err != nil {
			return nil, fmt.Errorf("lifecycle: warm start: %w", err)
		}
		trainer := &nn.Trainer{
			Epochs:    epochs,
			BatchSize: batch,
			Seed:      t.Seed + 13,
			Workers:   t.Workers,
		}
		if _, err := trainer.FitCtx(ctx, sys.Net, sys.TrainX, sys.TrainY); err != nil {
			return nil, fmt.Errorf("lifecycle: training candidate: %w", err)
		}
	}
	m, err := sys.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("lifecycle: snapshotting candidate: %w", err)
	}
	raw := sys.Test.RawVectors()
	holdX := make([][]float64, len(raw))
	for i, v := range raw {
		holdX[i] = v
	}
	return &Candidate{
		Model: m,
		HoldX: holdX,
		// TestY carries the class labels in whichever class space the
		// head was trained in (binary labels for K=2, family classes
		// otherwise); the canary's nn.Evaluate collapses both to the
		// binary operating point.
		HoldY:  sys.TestY,
		Window: sys.Data.Len(),
	}, nil
}
