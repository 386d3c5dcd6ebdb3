package attacks

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"advmal/internal/nn"
)

// The C&W, EAD and DeepFool crafts as they were when they read the margin
// gradient off a full Jacobian every iteration. They are the oracle the
// one-backward-pass crafts are held to: the margin gradient is no longer
// bit-identical (e_a - e_b is propagated once instead of two rows being
// subtracted), so the relation pinned is the outcome — the same samples
// succeed and Table III's MR and Avg.FG do not move.

type legacyCW struct{ *CW }

func (a legacyCW) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := a.target(eng, x, label)
	dim := len(x)
	w := make([]float64, dim)
	for i, xi := range x {
		w[i] = atanhClamped(xi)
	}
	m := make([]float64, dim)
	v := make([]float64, dim)
	adv := make([]float64, dim)
	grad := make([]float64, dim)
	best := cloneVec(x)
	bestDist := math.Inf(1)
	found := false
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for it := 1; it <= a.Iters; it++ {
		for i := range adv {
			adv[i] = (math.Tanh(w[i]) + 1) / 2
		}
		logits, jac := eng.Jacobian(adv)
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
		for i := range grad {
			g := 2 * (adv[i] - x[i])
			if margin > -a.Kappa {
				g += a.C * (jac[label][i] - jac[target][i])
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

type legacyElasticNet struct{ *ElasticNet }

func (e legacyElasticNet) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := e.target(eng, x, label)
	dim := len(x)
	y := cloneVec(x)
	adv := cloneVec(x)
	best := cloneVec(x)
	bestCost := math.Inf(1)
	found := false
	for it := 0; it < e.Iters; it++ {
		logits, jac := eng.Jacobian(y)
		margin := logits[label] - logits[target]
		for i := 0; i < dim; i++ {
			g := 2 * (y[i] - x[i])
			if margin > 0 {
				g += e.C * (jac[label][i] - jac[target][i])
			}
			y[i] -= e.LR * g
		}
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
		advLogits := eng.Logits(adv)
		if nn.Argmax(advLogits) == target {
			var l1, l2 float64
			for i := range adv {
				d := adv[i] - x[i]
				l1 += math.Abs(d)
				l2 += d * d
			}
			cost := e.Beta*l1 + l2
			if cost < bestCost {
				bestCost = cost
				copy(best, adv)
				found = true
			}
		}
	}
	if found {
		return best
	}
	return adv
}

type legacyDeepFool struct{ *DeepFool }

func (d legacyDeepFool) Craft(eng nn.Engine, x []float64, label int) []float64 {
	target := d.target(eng, x, label)
	adv := cloneVec(x)
	w := make([]float64, len(adv))
	for it := 0; it < d.Iters; it++ {
		logits, jac := eng.Jacobian(adv)
		if nn.Argmax(logits) == target {
			break
		}
		f := logits[target] - logits[label]
		for i := range w {
			w[i] = jac[target][i] - jac[label][i]
		}
		norm2 := 0.0
		for _, wi := range w {
			norm2 += wi * wi
		}
		if norm2 == 0 {
			break
		}
		scale := (-f / norm2) * (1 + d.Overshoot)
		for i := range adv {
			adv[i] += scale * w[i]
		}
		clipBox(adv)
	}
	return adv
}

// TestMarginCraftsMatchJacobianCrafts holds C&W, EAD and DeepFool to the
// Jacobian-reading crafts they replaced, on every row of trainedModel:
// each sample succeeds or fails the same way, and the Table III row's MR
// and Avg.FG are equal.
func TestMarginCraftsMatchJacobianCrafts(t *testing.T) {
	net, x, y := trainedModel(t)
	pairs := []struct{ now, old Attack }{
		{NewCW(0, 0, 0), legacyCW{NewCW(0, 0, 0)}},
		{NewElasticNet(0, 0, 0, 0), legacyElasticNet{NewElasticNet(0, 0, 0, 0)}},
		{NewDeepFool(0, 0), legacyDeepFool{NewDeepFool(0, 0)}},
	}
	ws := net.CloneShared().WS()
	for _, p := range pairs {
		t.Run(p.now.Name(), func(t *testing.T) {
			for _, i := range Eligible(ws, x, y, 0) {
				now := ws.Predict(p.now.Craft(ws, x[i], y[i])) != y[i]
				old := ws.Predict(p.old.Craft(ws, x[i], y[i])) != y[i]
				if now != old {
					t.Fatalf("sample %d: evades %v, the Jacobian craft %v", i, now, old)
				}
			}
			res, err := EvaluateCtx(context.Background(), net, []Attack{p.now, p.old}, x, y, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].MR != res[1].MR || res[0].AvgFG != res[1].AvgFG {
				t.Fatalf("Table III row %s, Jacobian craft %s", res[0], res[1])
			}
		})
	}
}

// heldOut returns n fresh rows from trainedModel's two clusters, drawn
// from a stream the model never trained on.
func heldOut(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(40))
	xs, ys := make([][]float64, n), make([]int, n)
	for i := range xs {
		ys[i] = i % 2
		center := 0.3 + 0.4*float64(ys[i])
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = center + rng.NormFloat64()*0.04
		}
	}
	return xs, ys
}

// sameCrafts asserts that two attacks craft bit-identical vectors on every
// held-out row.
func sameCrafts(t *testing.T, eng nn.Engine, a, b Attack) {
	t.Helper()
	xs, ys := heldOut(40)
	for i := range xs {
		got, want := a.Craft(eng, xs[i], ys[i]), b.Craft(eng, xs[i], ys[i])
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d feature %d: %s %v, %s %v", i, j, a.Name(), got[j], b.Name(), want[j])
			}
		}
	}
}

// TestFGSMIsOneStepPGD: FGSM is PGD with one step of the whole budget.
func TestFGSMIsOneStepPGD(t *testing.T) {
	net, _, _ := trainedModel(t)
	for _, eps := range []float64{0.1, DefaultEps} {
		sameCrafts(t, net.CloneShared().WS(), NewFGSM(eps), &PGD{Eps: eps, Iters: 1, Alpha: eps})
	}
}

// TestMomentumFreeMIMIsPGD: MIM with Mu 0 keeps no momentum, and its step
// is PGD's with Alpha = Eps/Iters. Before Craft used Mu as given, Mu 0
// silently meant 1.
func TestMomentumFreeMIMIsPGD(t *testing.T) {
	net, _, _ := trainedModel(t)
	mim := NewMIM(0, 0)
	mim.Mu = 0
	pgd := &PGD{Eps: mim.Eps, Iters: mim.Iters, Alpha: mim.Eps / float64(mim.Iters)}
	sameCrafts(t, net.CloneShared().WS(), mim, pgd)
}
