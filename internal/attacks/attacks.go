// Package attacks implements the eight off-the-shelf adversarial learning
// methods the paper evaluates against the CFG-based detector (§III-A,
// Table III): C&W (L2), DeepFool, ElasticNet (EAD), FGSM, JSMA, MIM, PGD,
// and VAM, plus the evaluation harness that reports the paper's three
// columns: misclassification rate (MR), average number of features changed
// (Avg.FG), and crafting time per sample (CT).
//
// All attacks operate in the scaled feature space (the [0,1] box the
// min-max scaler maps the training range onto) and are deterministic.
// For the binary detection task every attack targets the opposite class,
// which coincides with the untargeted objective. Against a K-way family
// head the margin attacks default to the runner-up class of the clean
// prediction (the nearest boundary), and every attack except VAM also
// supports an explicit target class via SetTarget — source→target
// family misclassification, evaluated by EvaluateFamiliesCtx.
package attacks

import (
	"math"

	"advmal/internal/nn"
)

// Attack crafts an adversarial example from a correctly classified sample.
// x is the scaled feature vector, label its true class. Implementations
// return a best-effort adversarial vector inside the [0,1] box; they do
// not fail.
//
// Attacks drive the model through the nn.Engine surface, so they run
// unchanged on the allocating *nn.Network oracle or on an *nn.Workspace
// (the zero-allocation engine every hot path uses). Implementations
// respect the engine contract: slices an engine returns may alias its
// internal buffers and are consumed — or copied — before the next engine
// call invalidates them.
type Attack interface {
	Name() string
	Craft(eng nn.Engine, x []float64, label int) []float64
}

// Box is the valid scaled feature range.
const (
	BoxLo = 0.0
	BoxHi = 1.0
)

// clipBox clamps v into the [BoxLo, BoxHi] box in place and returns it.
func clipBox(v []float64) []float64 {
	for i, x := range v {
		switch {
		case x < BoxLo:
			v[i] = BoxLo
		case x > BoxHi:
			v[i] = BoxHi
		}
	}
	return v
}

// clipLinf projects v onto the L-inf ball of radius eps around center,
// in place.
func clipLinf(v, center []float64, eps float64) []float64 {
	for i := range v {
		lo, hi := center[i]-eps, center[i]+eps
		switch {
		case v[i] < lo:
			v[i] = lo
		case v[i] > hi:
			v[i] = hi
		}
	}
	return v
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func l2norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func l1norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

// marginSeed returns e_a - e_b over k logits: InputGrad seeded with it,
// after a forward pass, is the input gradient of the margin z_a - z_b.
func marginSeed(k, a, b int) []float64 {
	s := make([]float64, k)
	s[a]++
	s[b]--
	return s
}

// opposite returns the adversary's target class for a binary detector.
func opposite(label int) int { return 1 - label }

// Targeted is implemented by attacks that support an explicit target
// class against a K-way head. SetTarget(class) forces subsequent Craft
// calls toward class; SetTarget is not safe concurrently with Craft —
// set the target, then fan crafting out. All eight attacks implement it
// except VAM, whose objective (output-distribution divergence) has no
// target class.
type Targeted interface {
	Attack
	SetTarget(class int)
}

// SetTarget forces a's target class when the attack supports targeting,
// reporting whether it does. Pass a negative class to reset to the
// untargeted objective.
func SetTarget(a Attack, class int) bool {
	t, ok := a.(Targeted)
	if ok {
		t.SetTarget(class)
	}
	return ok
}

// targetSelector is the shared target-class state for the margin-based
// attacks (C&W, DeepFool, EAD, JSMA). The zero value is the untargeted
// objective: the opposite class on a binary head — bit-identical to the
// legacy binary crafting path — or the runner-up class of the clean
// prediction on a K-way head (the nearest decision boundary). forced
// stores the explicit target class + 1 so the zero value stays
// untargeted.
type targetSelector struct {
	forced int
}

// SetTarget implements Targeted.
func (t *targetSelector) SetTarget(class int) {
	if class < 0 {
		t.forced = 0
		return
	}
	t.forced = class + 1
}

// forcedTarget returns the explicit target class, or -1 when untargeted.
// The loss-gradient attacks (FGSM/MIM/PGD) use it directly: untargeted
// they ascend the true-label loss (K-safe as-is), targeted they descend
// the target-class loss.
func (t *targetSelector) forcedTarget() int { return t.forced - 1 }

// target resolves the target class for one sample with true label label.
func (t *targetSelector) target(eng nn.Engine, x []float64, label int) int {
	if t.forced > 0 {
		return t.forced - 1
	}
	if eng.NumClasses() == 2 {
		return opposite(label)
	}
	return runnerUp(eng.Logits(x), label)
}

// runnerUp returns the highest-logit class other than label.
func runnerUp(logits []float64, label int) int {
	best, bestV := -1, math.Inf(-1)
	for k, v := range logits {
		if k == label {
			continue
		}
		if v > bestV {
			best, bestV = k, v
		}
	}
	if best < 0 {
		return opposite(label)
	}
	return best
}

// Default hyper-parameters, from §IV-B2 of the paper.
const (
	// DefaultEps is the distortion threshold for FGSM/MIM/PGD/VAM.
	DefaultEps = 0.3
	// DefaultCWIters and DefaultCWLR configure C&W (200 iterations, lr 0.1).
	DefaultCWIters = 200
	DefaultCWLR    = 0.1
	// DefaultDeepFoolIters and DefaultOvershoot configure DeepFool.
	DefaultDeepFoolIters = 100
	DefaultOvershoot     = 0.02
	// DefaultEADIters and DefaultEADLR configure ElasticNet.
	DefaultEADIters = 250
	DefaultEADLR    = 0.1
	// DefaultJSMATheta and DefaultJSMAGamma configure JSMA.
	DefaultJSMATheta = 0.3
	DefaultJSMAGamma = 0.6
	// DefaultMIMIters and DefaultPGDIters and DefaultVAMIters configure
	// the iterative eps-ball attacks.
	DefaultMIMIters = 10
	DefaultPGDIters = 40
	DefaultVAMIters = 40
)

// All returns the paper's eight attacks with their §IV-B2 configurations,
// in Table III order.
func All() []Attack {
	return []Attack{
		NewCW(0, 0, 0),
		NewDeepFool(0, 0),
		NewElasticNet(0, 0, 0, 0),
		NewFGSM(0),
		NewJSMA(0, 0),
		NewMIM(0, 0),
		NewPGD(0, 0),
		NewVAM(0, 0),
	}
}
