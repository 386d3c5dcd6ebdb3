package core

import (
	"context"
	"fmt"

	"advmal/internal/attacks"
	"advmal/internal/nn"
)

// AdversarialTrainOptions configures the adversarial-training defense,
// the direction the paper's conclusion calls for ("more robust detection
// tools against adversarial learning").
type AdversarialTrainOptions struct {
	// Attack crafts the on-line training perturbations against the model
	// being trained (Madry-style); nil selects PGD with the paper's eps.
	Attack attacks.Attack
	// AdvFraction is the fraction of each batch replaced by adversarial
	// examples (approximated as every k-th sample); 0 means 0.5.
	AdvFraction float64
	// Epochs for retraining; 0 keeps the system's configured epochs.
	Epochs int
}

// AdversarialTrain retrains a fresh detector with Madry-style online
// adversarial training: during every batch, a fraction of the samples is
// replaced by adversarial examples crafted against the current weights
// (labelled with their true class). The system's Net is replaced; the
// new training history is returned. Call EvaluateTest or RunTableIIICtx
// afterwards to measure the robustness gain.
func (s *System) AdversarialTrain(opts AdversarialTrainOptions) (*nn.History, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	atk := opts.Attack
	if atk == nil {
		atk = attacks.NewPGD(0, 0)
	}
	frac := opts.AdvFraction
	if frac <= 0 {
		frac = 0.5
	}
	if frac > 1 {
		frac = 1
	}
	every := int(1 / frac)
	if every < 1 {
		every = 1
	}
	s.Net = nn.PaperCNN(s.Config.Seed + 17)
	epochs := opts.Epochs
	if epochs <= 0 {
		epochs = s.Config.Epochs
	}
	trainer := &nn.Trainer{
		Epochs:        epochs,
		BatchSize:     s.Config.BatchSize,
		Seed:          s.Config.Seed + 23,
		Workers:       s.Config.Workers,
		EarlyStopLoss: s.Config.EarlyStopLoss,
		Verbose:       s.Config.Verbose,
		Augment: func(scratch *nn.Network, idx int, x []float64, label int) []float64 {
			if idx%every != 0 {
				return nil
			}
			// Craft on the scratch view's workspace: the attack's
			// forward/backward loop runs allocation-free without touching
			// the training clone's gradient accumulation.
			return atk.Craft(scratch.WS(), x, label)
		},
	}
	hist, err := trainer.FitCtx(context.TODO(), s.Net, s.TrainX, s.TrainY)
	if err != nil {
		return nil, fmt.Errorf("core: adversarial training: %w", err)
	}
	return hist, nil
}
