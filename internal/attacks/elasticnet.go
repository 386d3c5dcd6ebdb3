package attacks

import (
	"math"

	"advmal/internal/nn"
)

// ElasticNet is the EAD attack (Chen et al.): C&W's margin loss augmented
// with an elastic-net regularizer beta*||d||_1 + ||d||_2^2, optimized with
// iterative shrinkage-thresholding (ISTA). The L1 term concentrates the
// perturbation on few features, which is why the paper measures the
// second-lowest Avg.FG for EAD. The paper runs 250 iterations with
// learning rate 0.1.
type ElasticNet struct {
	targetSelector
	LR    float64
	Iters int
	C     float64 // margin penalty weight, used as given (NewElasticNet's default is 10)
	Beta  float64 // L1 weight, used as given (NewElasticNet's default is 0.05)
}

// NewElasticNet returns an EAD attack; zero parameters select the paper's
// values. Craft uses every field as given: the defaults live here only.
func NewElasticNet(lr float64, iters int, c, beta float64) *ElasticNet {
	if lr <= 0 {
		lr = DefaultEADLR
	}
	if iters <= 0 {
		iters = DefaultEADIters
	}
	if c <= 0 {
		c = 10
	}
	if beta <= 0 {
		beta = 0.05
	}
	return &ElasticNet{LR: lr, Iters: iters, C: c, Beta: beta}
}

// Name implements Attack.
func (e *ElasticNet) Name() string { return "ElasticNet" }

// Craft implements Attack. Among successful iterates it keeps the one
// with the smallest elastic-net distortion. Each iteration runs one
// forward pass, on the previous iterate, which both scores that iterate
// and seeds the margin gradient; the backward pass runs only while the
// hinge is active. One last forward pass scores the final iterate.
func (e *ElasticNet) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := e.target(eng, x, label)
	seed := marginSeed(eng.NumClasses(), label, target)
	dim := len(x)
	y := cloneVec(x) // ISTA iterate before shrinkage
	adv := cloneVec(x)
	best := cloneVec(x)
	bestCost := math.Inf(1)
	found := false
	// track keeps adv when its forward pass put it in the target class and
	// its distortion is the least so far.
	track := func(logits []float64) {
		if nn.Argmax(logits) != target {
			return
		}
		var l1, l2 float64
		for i := range adv {
			d := adv[i] - x[i]
			l1 += math.Abs(d)
			l2 += d * d
		}
		if cost := e.Beta*l1 + l2; cost < bestCost {
			bestCost = cost
			copy(best, adv)
			found = true
		}
	}
	for it := 0; it < e.Iters; it++ {
		logits := eng.Logits(y)
		if it > 0 {
			track(logits) // y is the previous iteration's adv
		}
		var mg []float64 // d(z_label - z_target)/dy; nil while the hinge is flat
		if logits[label]-logits[target] > 0 {
			mg = eng.InputGrad(seed)
		}
		// Gradient of the smooth part: c * dg/dx + 2*(y - x).
		for i := 0; i < dim; i++ {
			g := 2 * (y[i] - x[i])
			if mg != nil {
				g += e.C * mg[i]
			}
			y[i] -= e.LR * g
		}
		// Shrinkage toward the original sample (prox of beta*||d||_1).
		thr := e.LR * e.Beta
		for i := 0; i < dim; i++ {
			d := y[i] - x[i]
			switch {
			case d > thr:
				adv[i] = y[i] - thr
			case d < -thr:
				adv[i] = y[i] + thr
			default:
				adv[i] = x[i]
			}
		}
		clipBox(adv)
		copy(y, adv)
	}
	if e.Iters > 0 {
		track(eng.Logits(adv))
	}
	if found {
		return best
	}
	return adv
}

var _ Attack = (*ElasticNet)(nil)
