package lifecycle

import (
	"context"
	"fmt"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/nn"
)

// Gates are the canary thresholds a candidate must clear against the
// live model before a swap. All comparisons run on the same raw holdout,
// scaled by each model's own scaler — a model is gated on exactly the
// inputs it would see in production.
type Gates struct {
	// MaxAccuracyDrop is how much holdout accuracy the candidate may
	// lose versus live. Default 0.01.
	MaxAccuracyDrop float64
	// MaxFNRIncrease bounds the false-negative-rate regression — the
	// gate that matters most for a malware detector. Default 0.01.
	MaxFNRIncrease float64
	// MaxFPRIncrease bounds the false-positive-rate regression.
	// Default 0.02.
	MaxFPRIncrease float64
	// MaxEvasionIncrease bounds, per attack, how much the candidate's
	// misclassification rate under each of the paper's eight attacks may
	// exceed live's. Default 0.05.
	MaxEvasionIncrease float64
	// AttackSamples caps the holdout samples attacked per gate (the
	// evasion gates dominate canary cost). 0 means 32; negative skips
	// the evasion gates entirely.
	AttackSamples int
	// Workers is the crafting parallelism for the evasion gates.
	Workers int
}

// withDefaults fills zero thresholds.
func (g Gates) withDefaults() Gates {
	if g.MaxAccuracyDrop == 0 {
		g.MaxAccuracyDrop = 0.01
	}
	if g.MaxFNRIncrease == 0 {
		g.MaxFNRIncrease = 0.01
	}
	if g.MaxFPRIncrease == 0 {
		g.MaxFPRIncrease = 0.02
	}
	if g.MaxEvasionIncrease == 0 {
		g.MaxEvasionIncrease = 0.05
	}
	if g.AttackSamples == 0 {
		g.AttackSamples = 32
	}
	return g
}

// CanaryResult is one candidate's full evaluation against live.
type CanaryResult struct {
	// Pass reports whether every gate admitted the candidate.
	Pass bool
	// Live and Candidate are the clean holdout metrics.
	Live, Candidate nn.Metrics
	// Gates is the gate-by-gate verdict, in evaluation order: accuracy,
	// fnr, fpr, then one evasion gate per attack.
	Gates []GateStatus
}

// GateStatus reports one canary gate's evaluation: the live and
// candidate readings it compared and whether the candidate passed.
type GateStatus struct {
	// Name identifies the gate: "accuracy", "fnr", "fpr", or
	// "evasion:<attack>".
	Name string `json:"name"`
	// Live and Candidate are the gated metric's readings on the holdout
	// (higher-is-worse for fnr/fpr/evasion, higher-is-better for
	// accuracy).
	Live      float64 `json:"live"`
	Candidate float64 `json:"candidate"`
	// Margin is how far the candidate sat from the gate's threshold —
	// positive is headroom, negative is the violation size.
	Margin float64 `json:"margin"`
	// Pass reports whether this gate admitted the candidate.
	Pass bool `json:"pass"`
}

// EvaluateCanary gates a candidate model against the live one on a raw
// (unscaled) labeled holdout. Each model scales the holdout with its own
// fitted scaler — the candidate's scaler learned different ranges, and
// judging it through live's would measure the wrong model. The evasion
// gates re-craft the paper's eight attacks against BOTH models and
// require the candidate's misclassification rate to stay within
// MaxEvasionIncrease of live's, per attack: retraining must not ship a
// model that is easier to evade. Cancelling ctx stops the evasion gates'
// crafting.
func EvaluateCanary(ctx context.Context, live, cand *core.Model, rawX [][]float64, y []int, g Gates) (CanaryResult, error) {
	g = g.withDefaults()
	var res CanaryResult
	if live == nil || cand == nil {
		return res, fmt.Errorf("lifecycle: canary needs both models")
	}
	if len(rawX) == 0 || len(rawX) != len(y) {
		return res, fmt.Errorf("lifecycle: canary holdout has %d vectors for %d labels", len(rawX), len(y))
	}
	liveX, err := scaleAll(live, rawX)
	if err != nil {
		return res, fmt.Errorf("lifecycle: scaling holdout for live: %w", err)
	}
	candX, err := scaleAll(cand, rawX)
	if err != nil {
		return res, fmt.Errorf("lifecycle: scaling holdout for candidate: %w", err)
	}
	res.Live = nn.Evaluate(live.Net, liveX, y)
	res.Candidate = nn.Evaluate(cand.Net, candX, y)

	res.Gates = append(res.Gates,
		// Accuracy is higher-is-better: margin is how far the candidate
		// sits above the lowest admissible accuracy.
		gate("accuracy", res.Live.Accuracy, res.Candidate.Accuracy,
			res.Candidate.Accuracy-(res.Live.Accuracy-g.MaxAccuracyDrop)),
		gate("fnr", res.Live.FNR, res.Candidate.FNR,
			(res.Live.FNR+g.MaxFNRIncrease)-res.Candidate.FNR),
		gate("fpr", res.Live.FPR, res.Candidate.FPR,
			(res.Live.FPR+g.MaxFPRIncrease)-res.Candidate.FPR),
	)

	if g.AttackSamples >= 0 {
		opts := attacks.Options{MaxSamples: g.AttackSamples, Workers: g.Workers}
		atks := attacks.All()
		liveRes, err := attacks.EvaluateCtx(ctx, live.Net, atks, liveX, y, opts)
		if err != nil {
			return res, err
		}
		candRes, err := attacks.EvaluateCtx(ctx, cand.Net, atks, candX, y, opts)
		if err != nil {
			return res, err
		}
		for i := range liveRes {
			res.Gates = append(res.Gates,
				gate("evasion:"+liveRes[i].Attack, liveRes[i].MR, candRes[i].MR,
					(liveRes[i].MR+g.MaxEvasionIncrease)-candRes[i].MR))
		}
	}

	res.Pass = true
	for _, gs := range res.Gates {
		if !gs.Pass {
			res.Pass = false
			break
		}
	}
	return res, nil
}

// gate folds one comparison into a GateStatus; a non-negative margin
// passes.
func gate(name string, live, cand, margin float64) GateStatus {
	return GateStatus{Name: name, Live: live, Candidate: cand, Margin: margin, Pass: margin >= 0}
}

// scaleAll scales the raw holdout through one model's scaler.
func scaleAll(m *core.Model, rawX [][]float64) ([][]float64, error) {
	out := make([][]float64, len(rawX))
	for i, raw := range rawX {
		v, err := m.Scaler.Transform(raw)
		if err != nil {
			return nil, fmt.Errorf("vector %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
