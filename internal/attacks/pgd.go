package attacks

import (
	"advmal/internal/nn"
)

// PGD is projected gradient descent (Madry et al.): iterated FGSM steps
// projected back onto the eps L-inf ball around the original sample and
// the [0,1] box. The paper runs 40 iterations with eps=0.3.
type PGD struct {
	targetSelector
	Eps   float64
	Iters int
	// Alpha is the per-step size, used as given. NewPGD sets
	// 2.5*Eps/Iters, the standard choice that lets iterates traverse the
	// ball.
	Alpha float64
}

// NewPGD returns a PGD attack; zero parameters select the paper's values.
// Craft uses every field as given: the defaults live here only.
func NewPGD(eps float64, iters int) *PGD {
	if eps <= 0 {
		eps = DefaultEps
	}
	if iters <= 0 {
		iters = DefaultPGDIters
	}
	return &PGD{Eps: eps, Iters: iters, Alpha: 2.5 * eps / float64(iters)}
}

// Name implements Attack.
func (p *PGD) Name() string { return "PGD" }

// Craft implements Attack.
func (p *PGD) Craft(eng nn.Engine, x []float64, label int) []float64 {
	lbl, dir := label, 1.0
	if t := p.forcedTarget(); t >= 0 {
		lbl, dir = t, -1.0 // targeted: descend the target-class loss
	}
	adv := cloneVec(x)
	for it := 0; it < p.Iters; it++ {
		_, grad := eng.LossGrad(adv, lbl)
		for i := range adv {
			adv[i] += dir * p.Alpha * sign(grad[i])
		}
		clipLinf(adv, x, p.Eps)
		clipBox(adv)
	}
	return adv
}

var _ Attack = (*PGD)(nil)
