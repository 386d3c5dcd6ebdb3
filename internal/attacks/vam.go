package attacks

import (
	"math"

	"advmal/internal/nn"
)

// VAM is the virtual adversarial method (Miyato et al.): the perturbation
// direction maximizing the KL divergence between the model's output
// distribution at x and at x+r, estimated with power iterations, scaled
// to the eps ball. Like FGSM it takes a single eps-sized step along a
// locally estimated direction, which the paper identifies as the reason
// both attacks sit far below the iterative methods in Table III.
type VAM struct {
	Eps   float64
	Iters int     // power iterations refining the direction
	Xi    float64 // probe scale, used as given (NewVAM's default is 1e-2)
}

// NewVAM returns a VAM attack; zero parameters select the paper's values
// (eps=0.3, 40 iterations). Craft uses every field as given: the defaults
// live here only.
func NewVAM(eps float64, iters int) *VAM {
	if eps <= 0 {
		eps = DefaultEps
	}
	if iters <= 0 {
		iters = DefaultVAMIters
	}
	return &VAM{Eps: eps, Iters: iters, Xi: 1e-2}
}

// Name implements Attack.
func (v *VAM) Name() string { return "VAM" }

// Craft implements Attack. The gradient of KL(p(x) || p(x+r)) with
// respect to the logits at x+r is p(x+r) - p(x), so one backward pass per
// power iteration refines the direction d; the attack returns
// x + eps * d / ||d||_2.
func (v *VAM) Craft(eng nn.Engine, x []float64, label int) []float64 {
	// Probs may alias an engine buffer the next Forward clobbers; the
	// anchor distribution survives the whole loop, so copy it.
	p0 := cloneVec(eng.Probs(x))
	dim := len(x)
	// Deterministic unit init.
	d := make([]float64, dim)
	for i := range d {
		d[i] = 1 / math.Sqrt(float64(dim))
	}
	probe := make([]float64, dim)
	p := make([]float64, len(p0))
	dLogits := make([]float64, len(p0))
	for it := 0; it < v.Iters; it++ {
		for i := range probe {
			probe[i] = x[i] + v.Xi*d[i]
		}
		nn.SoftmaxInto(p, eng.Logits(probe))
		for k := range p {
			dLogits[k] = p[k] - p0[k]
		}
		g := eng.InputGrad(dLogits)
		norm := l2norm(g)
		if norm == 0 {
			break
		}
		for i := range d {
			d[i] = g[i] / norm
		}
	}
	adv := cloneVec(x)
	for i := range adv {
		adv[i] += v.Eps * d[i]
	}
	return clipBox(adv)
}

var _ Attack = (*VAM)(nil)
