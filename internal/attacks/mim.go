package attacks

import (
	"advmal/internal/nn"
)

// MIM is the momentum iterative method (Dong et al.): iterated sign steps
// on an L1-normalized gradient accumulated with decay factor mu, which
// stabilizes the update direction and escapes poor local maxima. The
// paper runs 10 iterations with eps=0.3.
type MIM struct {
	targetSelector
	Eps   float64
	Iters int
	// Mu is the momentum decay factor, used as given: 0 is momentum-free
	// MIM, which steps like PGD with Alpha = Eps/Iters. NewMIM sets 1.0,
	// the MIM paper's default.
	Mu float64
}

// NewMIM returns an MIM attack; zero parameters select the paper's values.
// Craft uses every field as given: the defaults live here only.
func NewMIM(eps float64, iters int) *MIM {
	if eps <= 0 {
		eps = DefaultEps
	}
	if iters <= 0 {
		iters = DefaultMIMIters
	}
	return &MIM{Eps: eps, Iters: iters, Mu: 1.0}
}

// Name implements Attack.
func (m *MIM) Name() string { return "MIM" }

// Craft implements Attack.
func (m *MIM) Craft(eng nn.Engine, x []float64, label int) []float64 {
	lbl, dir := label, 1.0
	if t := m.forcedTarget(); t >= 0 {
		lbl, dir = t, -1.0 // targeted: descend the target-class loss
	}
	alpha := m.Eps / float64(m.Iters)
	adv := cloneVec(x)
	momentum := make([]float64, len(x))
	for it := 0; it < m.Iters; it++ {
		_, grad := eng.LossGrad(adv, lbl)
		n1 := l1norm(grad)
		if n1 == 0 {
			n1 = 1
		}
		for i := range momentum {
			momentum[i] = m.Mu*momentum[i] + grad[i]/n1
		}
		for i := range adv {
			adv[i] += dir * alpha * sign(momentum[i])
		}
		clipLinf(adv, x, m.Eps)
		clipBox(adv)
	}
	return adv
}

var _ Attack = (*MIM)(nil)
