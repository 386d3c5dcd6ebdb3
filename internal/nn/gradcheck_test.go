package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalInputGrad estimates dLoss/dx by central finite differences.
func numericalInputGrad(o *oracle, x []float64, label int) []float64 {
	const h = 1e-5
	grad := make([]float64, len(x))
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp, _ := softmaxCE(o.Forward(x, false), label)
		x[i] = orig - h
		lm, _ := softmaxCE(o.Forward(x, false), label)
		x[i] = orig
		grad[i] = (lp - lm) / (2 * h)
	}
	return grad
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestInputGradientMatchesNumerical checks the full backward pass through
// every layer type of the paper architecture against finite differences.
func TestInputGradientMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := newOracle(PaperCNN(11))
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, PaperInputLen)
		for i := range x {
			x[i] = rng.Float64()
		}
		label := trial % 2
		_, analytic := o.LossGrad(x, label)
		numeric := numericalInputGrad(o, x, label)
		if d := maxAbsDiff(analytic, numeric); d > 1e-4 {
			t.Errorf("trial %d: input gradient mismatch %v", trial, d)
		}
	}
}

// TestParamGradientsMatchNumerical spot-checks parameter gradients of
// every layer against finite differences.
func TestParamGradientsMatchNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := PaperCNN(12)
	o := newOracle(net)
	x := make([]float64, PaperInputLen)
	for i := range x {
		x[i] = rng.Float64()
	}
	label := 1
	_, _ = o.LossGrad(x, label) // fills p.G
	const h = 1e-5
	for _, p := range net.Params() {
		// Check a few entries per parameter tensor.
		for probe := 0; probe < 3 && probe < len(p.W); probe++ {
			j := (probe * 7919) % len(p.W)
			orig := p.W[j]
			p.W[j] = orig + h
			wroteWeights(net)
			lp, _ := softmaxCE(o.Forward(x, false), label)
			p.W[j] = orig - h
			wroteWeights(net)
			lm, _ := softmaxCE(o.Forward(x, false), label)
			p.W[j] = orig
			wroteWeights(net)
			numeric := (lp - lm) / (2 * h)
			if d := math.Abs(p.G[j] - numeric); d > 1e-4 {
				t.Errorf("%s[%d]: analytic %v, numeric %v", p.Name, j, p.G[j], numeric)
			}
		}
	}
}

// TestJacobianMatchesNumerical verifies per-logit input Jacobians, which
// JSMA, DeepFool, and C&W depend on.
func TestJacobianMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := newOracle(SmallMLP(13, 6, 10, 3))
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	logits, jac := o.Jacobian(x)
	if len(jac) != 3 {
		t.Fatalf("Jacobian rows = %d, want 3", len(jac))
	}
	const h = 1e-5
	for k := range logits {
		for i := range x {
			orig := x[i]
			x[i] = orig + h
			zp := o.Forward(x, false)[k]
			x[i] = orig - h
			zm := o.Forward(x, false)[k]
			x[i] = orig
			numeric := (zp - zm) / (2 * h)
			if d := math.Abs(jac[k][i] - numeric); d > 1e-4 {
				t.Errorf("jac[%d][%d] = %v, numeric %v", k, i, jac[k][i], numeric)
			}
		}
	}
}

// TestMarginGradMatchesJacobian pins the margin attacks' gradient: one
// backward pass seeded with e_a - e_b, after the forward pass, is
// jac[a] - jac[b]. The two round differently — the seed is propagated once
// instead of two rows being propagated and then subtracted — so they agree
// within 64 ulps of the rows' magnitude (8 at most on these inputs), not
// bit for bit; the workspace and the oracle still agree with each other
// exactly.
func TestMarginGradMatchesJacobian(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, classes := range []int{2, 6} {
		net := PaperCNNClasses(16, classes)
		ws := net.CloneShared().WS()
		o := newOracle(net)
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, net.InputDim())
			for i := range x {
				x[i] = rng.Float64()
			}
			_, jac := o.Jacobian(x)
			a, b := rng.Intn(classes), rng.Intn(classes-1)
			if b >= a {
				b++
			}
			seed := make([]float64, classes)
			seed[a], seed[b] = 1, -1
			ws.Logits(x)
			got := ws.InputGrad(seed)
			o.Logits(x)
			bitsEqual(t, "oracle margin gradient", o.InputGrad(seed), got)
			var scale, worst float64
			for i := range got {
				scale = math.Max(scale, math.Abs(jac[a][i])+math.Abs(jac[b][i]))
				worst = math.Max(worst, math.Abs(got[i]-(jac[a][i]-jac[b][i])))
			}
			if tol := 64 * 0x1p-52 * scale; worst > tol {
				t.Errorf("%d classes, margin %d-%d: off by %g, tolerance %g", classes, a, b, worst, tol)
			}
		}
	}
}

// TestConvolutionKnownValues checks Conv1D against hand-computed output.
func TestConvolutionKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D("c", 1, 1, 3, false, rng)
	// Kernel [1, 2, 3], bias 10.
	copy(c.w.W, []float64{1, 2, 3})
	c.b.W[0] = 10
	out := layerWS([]int{1, 4}, c).Logits([]float64{1, 0, -1, 2})
	// valid positions: [1*1+0*2+(-1)*3, 0*1+(-1)*2+2*3] + 10 = [8, 14]
	want := []float64{8, 14}
	if len(out) != 2 {
		t.Fatalf("out len = %d, want 2", len(out))
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestConvolutionSamePadding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv1D("c", 1, 1, 3, true, rng)
	copy(c.w.W, []float64{1, 1, 1})
	c.b.W[0] = 0
	out := layerWS([]int{1, 3}, c).Logits([]float64{1, 2, 3})
	// same padding: [0+1+2, 1+2+3, 2+3+0]
	want := []float64{3, 6, 5}
	if len(out) != 3 {
		t.Fatalf("same-pad out len = %d, want 3", len(out))
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}
