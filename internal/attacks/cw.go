package attacks

import (
	"math"

	"advmal/internal/nn"
)

// CW is the Carlini & Wagner L2 attack: the adversarial example is
// parameterized in tanh space so it always stays inside the box, and Adam
// minimizes ||x'-x||^2 + c * g(x'), where g penalizes the margin between
// the original and target logits. The paper runs 200 iterations with
// learning rate 0.1 and reports 100% MR with small L2 distortion.
type CW struct {
	targetSelector
	LR    float64
	Iters int
	C     float64 // penalty weight, used as given (NewCW's default is 10)
	Kappa float64 // confidence margin; paper setting is 0
}

// NewCW returns a C&W-L2 attack; zero parameters select the paper's values.
// Craft uses every field as given: the defaults live here only.
func NewCW(lr float64, iters int, c float64) *CW {
	if lr <= 0 {
		lr = DefaultCWLR
	}
	if iters <= 0 {
		iters = DefaultCWIters
	}
	if c <= 0 {
		c = 10
	}
	return &CW{LR: lr, Iters: iters, C: c}
}

// Name implements Attack.
func (a *CW) Name() string { return "C&W" }

const tanhClamp = 0.999999

func atanhClamped(x float64) float64 {
	// Map box [0,1] to (-1,1) and clamp away from the poles.
	y := 2*x - 1
	if y > tanhClamp {
		y = tanhClamp
	}
	if y < -tanhClamp {
		y = -tanhClamp
	}
	return math.Atanh(y)
}

// Craft implements Attack. It tracks the successful iterate with minimal
// L2 distortion and returns it; if no iterate succeeds it returns the
// final one. The margin term's gradient is one backward pass seeded with
// e_label - e_target, run only while the hinge is active.
func (a *CW) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := a.target(eng, x, label)
	seed := marginSeed(eng.NumClasses(), label, target)
	dim := len(x)
	w := make([]float64, dim)
	for i, xi := range x {
		w[i] = atanhClamped(xi)
	}
	// Adam state.
	m := make([]float64, dim)
	v := make([]float64, dim)
	adv := make([]float64, dim)
	grad := make([]float64, dim)
	best := cloneVec(x)
	bestDist := math.Inf(1)
	found := false
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for it := 1; it <= a.Iters; it++ {
		// adv = (tanh(w)+1)/2; dadv/dw = (1-tanh^2)/2.
		for i := range adv {
			adv[i] = (math.Tanh(w[i]) + 1) / 2
		}
		logits := eng.Logits(adv)
		// g = max(z_label - z_target, -kappa).
		margin := logits[label] - logits[target]
		dist2 := 0.0
		for i := range adv {
			d := adv[i] - x[i]
			dist2 += d * d
		}
		if nn.Argmax(logits) == target && dist2 < bestDist {
			bestDist = dist2
			copy(best, adv)
			found = true
		}
		var mg []float64 // d(z_label - z_target)/d adv; nil while the hinge is flat
		if margin > -a.Kappa {
			mg = eng.InputGrad(seed)
		}
		for i := range grad {
			g := 2 * (adv[i] - x[i])
			if mg != nil {
				g += a.C * mg[i]
			}
			th := math.Tanh(w[i])
			grad[i] = g * (1 - th*th) / 2
		}
		c1 := 1 - math.Pow(b1, float64(it))
		c2 := 1 - math.Pow(b2, float64(it))
		for i := range w {
			m[i] = b1*m[i] + (1-b1)*grad[i]
			v[i] = b2*v[i] + (1-b2)*grad[i]*grad[i]
			w[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
		}
	}
	if found {
		return best
	}
	for i := range adv {
		adv[i] = (math.Tanh(w[i]) + 1) / 2
	}
	return adv
}

var _ Attack = (*CW)(nil)
