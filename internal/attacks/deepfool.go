package attacks

import (
	"advmal/internal/nn"
)

// DeepFool (Moosavi-Dezfooli et al.) iteratively linearizes the classifier
// and takes the minimal L2 step to the nearest decision boundary, with a
// small overshoot so the iterate actually crosses it. The paper uses
// overshoot 0.02 and at most 100 iterations.
type DeepFool struct {
	targetSelector
	Overshoot float64
	Iters     int
}

// NewDeepFool returns a DeepFool attack; zero parameters select the
// paper's values.
func NewDeepFool(overshoot float64, iters int) *DeepFool {
	if overshoot <= 0 {
		overshoot = DefaultOvershoot
	}
	if iters <= 0 {
		iters = DefaultDeepFoolIters
	}
	return &DeepFool{Overshoot: overshoot, Iters: iters}
}

// Name implements Attack.
func (d *DeepFool) Name() string { return "DeepFool" }

// Craft implements Attack. For the binary detector the boundary is
// f(x) = z_t - z_y; each step moves -f(x)/||w||^2 * w with
// w = dz_t/dx - dz_y/dx, scaled by (1+overshoot). w is one backward pass
// seeded with e_t - e_y.
func (d *DeepFool) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := d.target(eng, x, label)
	seed := marginSeed(eng.NumClasses(), target, label)
	adv := cloneVec(x)
	for it := 0; it < d.Iters; it++ {
		logits := eng.Logits(adv)
		if nn.Argmax(logits) == target {
			break
		}
		f := logits[target] - logits[label]
		w := eng.InputGrad(seed) // the boundary normal, one backward pass
		norm2 := 0.0
		for _, wi := range w {
			norm2 += wi * wi
		}
		if norm2 == 0 {
			break
		}
		// Before misclassification f < 0, so -f/||w||^2 > 0 and the step
		// moves along +w toward the boundary.
		scale := (-f / norm2) * (1 + d.Overshoot)
		for i := range adv {
			adv[i] += scale * w[i]
		}
		clipBox(adv)
	}
	return adv
}

var _ Attack = (*DeepFool)(nil)
