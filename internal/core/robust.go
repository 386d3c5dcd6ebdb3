package core

import (
	"context"
	"fmt"

	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/nn"
)

// RobustFeatureResult quantifies the paper's closing recommendation —
// "more robust detection tools against adversarial learning, including
// features that are not easy to manipulate" — by retraining the detector
// WITHOUT the features GEA moves most directly (the raw size features:
// #nodes, #edges, and density, which grow monotonically under graph
// augmentation) and re-measuring GEA's malware→benign success.
type RobustFeatureResult struct {
	MaskedFeatures []int
	CleanBefore    nn.Metrics
	CleanAfter     nn.Metrics
	GEABefore      []gea.Row // Table IV rows against the original model
	GEAAfter       []gea.Row // Table IV rows against the masked model
}

// maskVectors zeroes the masked feature columns.
func maskVectors(x [][]float64, mask []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, v := range x {
		c := append([]float64(nil), v...)
		for _, j := range mask {
			if j >= 0 && j < len(c) {
				c[j] = 0
			}
		}
		out[i] = c
	}
	return out
}

// RunRobustFeatureExperiment retrains with the given feature indices
// masked to zero (nil selects the manipulation-prone size features:
// density, #edges, #nodes) and compares clean metrics and GEA Table IV
// rows before and after. The system's primary Net is left untouched.
func (s *System) RunRobustFeatureExperiment(mask []int) (*RobustFeatureResult, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	if mask == nil {
		mask = []int{20, 21, 22} // density, # of edges, # of nodes
	}
	res := &RobustFeatureResult{MaskedFeatures: mask}
	var err error
	if res.CleanBefore, err = s.EvaluateTest(); err != nil {
		return nil, err
	}
	if res.GEABefore, err = s.RunTableIVCtx(context.TODO(), false); err != nil {
		return nil, err
	}

	// Retrain on masked features.
	maskedTrainX := maskVectors(s.TrainX, mask)
	maskedTestX := maskVectors(s.TestX, mask)
	robust := nn.PaperCNN(s.Config.Seed + 41)
	trainer := &nn.Trainer{
		Epochs:        s.Config.Epochs,
		BatchSize:     s.Config.BatchSize,
		Seed:          s.Config.Seed + 43,
		Workers:       s.Config.Workers,
		EarlyStopLoss: s.Config.EarlyStopLoss,
		Verbose:       s.Config.Verbose,
	}
	if _, err := trainer.FitCtx(context.TODO(), robust, maskedTrainX, s.TrainY); err != nil {
		return nil, fmt.Errorf("core: robust retrain: %w", err)
	}
	res.CleanAfter = nn.Evaluate(robust, maskedTestX, s.TestY)

	// GEA against the masked model. The pipeline's scaler must mask the
	// same features; a copy whose masked columns have min == max makes
	// Transform yield 0 for them.
	ms := &features.Scaler{
		Min: append([]float64(nil), s.Scaler.Min...),
		Max: append([]float64(nil), s.Scaler.Max...),
	}
	for _, j := range mask {
		if j >= 0 && j < len(ms.Min) {
			ms.Max[j] = ms.Min[j]
		}
	}
	pipeline := &gea.Pipeline{
		Net:     robust,
		Scaler:  ms,
		Workers: s.Config.Workers,
	}
	rows, err := pipeline.RunSizeExperimentCtx(context.TODO(), s.TestSamples(), s.Samples, false)
	if err != nil {
		return nil, err
	}
	res.GEAAfter = rows
	return res, nil
}

// String summarizes the robustness experiment.
func (r *RobustFeatureResult) String() string {
	maxBefore, maxAfter := 0.0, 0.0
	for _, row := range r.GEABefore {
		if row.MR > maxBefore {
			maxBefore = row.MR
		}
	}
	for _, row := range r.GEAAfter {
		if row.MR > maxAfter {
			maxAfter = row.MR
		}
	}
	return fmt.Sprintf(
		"robust features: masked %v; clean AR %.2f%% -> %.2f%%; GEA max MR %.2f%% -> %.2f%%",
		r.MaskedFeatures, r.CleanBefore.Accuracy*100, r.CleanAfter.Accuracy*100,
		maxBefore*100, maxAfter*100)
}
