package attacks

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"advmal/internal/nn"
)

// testModel caches a small trained model on [0,1]-box blob data shared
// across attack tests.
var (
	modelOnce sync.Once
	model     *nn.Network
	modelX    [][]float64
	modelY    []int
)

// trainedModel returns a deterministic MLP with ~100% accuracy on a
// two-cluster problem inside the [0,1] box (clusters at 0.3 and 0.7).
func trainedModel(t *testing.T) (*nn.Network, [][]float64, []int) {
	t.Helper()
	modelOnce.Do(func() {
		rng := rand.New(rand.NewSource(4))
		n, dim := 160, 6
		modelX = make([][]float64, n)
		modelY = make([]int, n)
		for i := range modelX {
			label := i % 2
			center := 0.3
			if label == 1 {
				center = 0.7
			}
			v := make([]float64, dim)
			for j := range v {
				v[j] = center + rng.NormFloat64()*0.04
			}
			modelX[i] = v
			modelY[i] = label
		}
		model = nn.SmallMLP(5, dim, 24, 2)
		tr := &nn.Trainer{Epochs: 60, BatchSize: 16, Seed: 6, Workers: 1}
		if _, err := tr.Fit(model, modelX, modelY); err != nil {
			panic(err)
		}
	})
	m := nn.Evaluate(model, modelX, modelY)
	if m.Accuracy < 0.99 {
		t.Fatalf("test model underfit: %v", m)
	}
	return model, modelX, modelY
}

func inBox(v []float64) bool {
	for _, x := range v {
		if x < BoxLo-1e-12 || x > BoxHi+1e-12 {
			return false
		}
	}
	return true
}

func TestAllReturnsEightAttacks(t *testing.T) {
	atks := All()
	if len(atks) != 8 {
		t.Fatalf("All() = %d attacks, want 8", len(atks))
	}
	want := []string{"C&W", "DeepFool", "ElasticNet", "FGSM", "JSMA", "MIM", "PGD", "VAM"}
	for i, a := range atks {
		if a.Name() != want[i] {
			t.Errorf("attack %d = %q, want %q (Table III order)", i, a.Name(), want[i])
		}
	}
}

// TestAttacksStayInBoxAndAreDeterministic runs every attack on several
// samples, asserting box membership and run-to-run determinism.
func TestAttacksStayInBoxAndAreDeterministic(t *testing.T) {
	net, x, y := trainedModel(t)
	for _, atk := range All() {
		t.Run(atk.Name(), func(t *testing.T) {
			for i := 0; i < 6; i++ {
				a := atk.Craft(net.WS(), x[i], y[i])
				if !inBox(a) {
					t.Fatalf("sample %d escaped the box: %v", i, a)
				}
				if len(a) != len(x[i]) {
					t.Fatalf("sample %d changed dimension", i)
				}
				b := atk.Craft(net.WS(), x[i], y[i])
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("sample %d not deterministic at feature %d", i, j)
					}
				}
			}
		})
	}
}

// TestAttacksDoNotMutateInput guards against in-place perturbation.
func TestAttacksDoNotMutateInput(t *testing.T) {
	net, x, y := trainedModel(t)
	for _, atk := range All() {
		orig := append([]float64(nil), x[0]...)
		atk.Craft(net.WS(), x[0], y[0])
		for j := range orig {
			if x[0][j] != orig[j] {
				t.Fatalf("%s mutated its input", atk.Name())
			}
		}
	}
}

// TestIterativeAttacksFoolEasyModel: on a simple separable problem, the
// strong iterative attacks must reach ~100% success, reproducing the
// paper's headline.
func TestIterativeAttacksFoolEasyModel(t *testing.T) {
	net, x, y := trainedModel(t)
	strong := []Attack{NewCW(0, 0, 0), NewElasticNet(0, 0, 0, 0), NewPGD(0, 0), NewMIM(0, 0), NewJSMA(0, 0), NewDeepFool(0, 0)}
	for _, atk := range strong {
		flipped := 0
		total := 10
		for i := 0; i < total; i++ {
			if net.WS().Predict(x[i]) != y[i] {
				continue
			}
			adv := atk.Craft(net.WS(), x[i], y[i])
			if net.WS().Predict(adv) != y[i] {
				flipped++
			}
		}
		if flipped < total-1 {
			t.Errorf("%s flipped %d/%d, want near-all", atk.Name(), flipped, total)
		}
	}
}

func TestCWMinimizesDistortion(t *testing.T) {
	net, x, y := trainedModel(t)
	cw := NewCW(0, 0, 0)
	adv := cw.Craft(net.WS(), x[0], y[0])
	if net.WS().Predict(adv) == y[0] {
		t.Fatal("C&W failed on easy model")
	}
	var dist float64
	for i := range adv {
		d := adv[i] - x[0][i]
		dist += d * d
	}
	// The clusters are ~0.4 apart; a minimal-distortion attack should
	// cross the midpoint, not jump to the far cluster.
	if math.Sqrt(dist) > 0.6 {
		t.Errorf("C&W L2 distortion %v unexpectedly large", math.Sqrt(dist))
	}
}

func TestJSMAChangesFewFeatures(t *testing.T) {
	net, x, y := trainedModel(t)
	jsma := NewJSMA(0, 0)
	adv := jsma.Craft(net.WS(), x[0], y[0])
	changed := 0
	for i := range adv {
		if math.Abs(adv[i]-x[0][i]) > 1e-9 {
			changed++
		}
	}
	budget := int(DefaultJSMAGamma * float64(len(x[0])))
	if changed > budget {
		t.Errorf("JSMA changed %d features, budget %d", changed, budget)
	}
	if changed == 0 && net.WS().Predict(x[0]) == y[0] {
		t.Error("JSMA changed nothing on a correctly classified sample")
	}
}

func TestFGSMRespectsEps(t *testing.T) {
	net, x, y := trainedModel(t)
	eps := 0.1
	adv := NewFGSM(eps).Craft(net.WS(), x[0], y[0])
	for i := range adv {
		if d := math.Abs(adv[i] - x[0][i]); d > eps+1e-12 {
			t.Errorf("feature %d moved %v > eps %v", i, d, eps)
		}
	}
}

func TestPGDAndMIMRespectEpsBall(t *testing.T) {
	net, x, y := trainedModel(t)
	for _, atk := range []Attack{NewPGD(0.2, 10), NewMIM(0.2, 5)} {
		adv := atk.Craft(net.WS(), x[1], y[1])
		for i := range adv {
			if d := math.Abs(adv[i] - x[1][i]); d > 0.2+1e-9 {
				t.Errorf("%s: feature %d moved %v > 0.2", atk.Name(), i, d)
			}
		}
	}
}

func TestVAMRespectsEps(t *testing.T) {
	net, x, y := trainedModel(t)
	adv := NewVAM(0.25, 5).Craft(net.WS(), x[2], y[2])
	var dist float64
	for i := range adv {
		d := adv[i] - x[2][i]
		dist += d * d
	}
	// VAM steps eps along a unit direction (then clips), so the L2 move
	// is at most eps.
	if math.Sqrt(dist) > 0.25+1e-9 {
		t.Errorf("VAM L2 move %v > eps", math.Sqrt(dist))
	}
}

func TestDefaultsFollowPaper(t *testing.T) {
	if cw := NewCW(0, 0, 0); cw.LR != 0.1 || cw.Iters != 200 {
		t.Errorf("C&W defaults %v/%v, want 0.1/200", cw.LR, cw.Iters)
	}
	if df := NewDeepFool(0, 0); df.Overshoot != 0.02 || df.Iters != 100 {
		t.Errorf("DeepFool defaults %v/%v, want 0.02/100", df.Overshoot, df.Iters)
	}
	if ead := NewElasticNet(0, 0, 0, 0); ead.LR != 0.1 || ead.Iters != 250 {
		t.Errorf("EAD defaults %v/%v, want 0.1/250", ead.LR, ead.Iters)
	}
	if f := NewFGSM(0); f.Eps != 0.3 {
		t.Errorf("FGSM eps %v, want 0.3", f.Eps)
	}
	if j := NewJSMA(0, 0); j.Theta != 0.3 || j.Gamma != 0.6 {
		t.Errorf("JSMA %v/%v, want 0.3/0.6", j.Theta, j.Gamma)
	}
	if m := NewMIM(0, 0); m.Eps != 0.3 || m.Iters != 10 {
		t.Errorf("MIM %v/%v, want 0.3/10", m.Eps, m.Iters)
	}
	if p := NewPGD(0, 0); p.Eps != 0.3 || p.Iters != 40 {
		t.Errorf("PGD %v/%v, want 0.3/40", p.Eps, p.Iters)
	}
	if v := NewVAM(0, 0); v.Eps != 0.3 || v.Iters != 40 {
		t.Errorf("VAM %v/%v, want 0.3/40", v.Eps, v.Iters)
	}
}

func TestHelpers(t *testing.T) {
	if sign(3) != 1 || sign(-2) != -1 || sign(0) != 0 {
		t.Error("sign wrong")
	}
	v := []float64{-0.5, 0.5, 1.5}
	clipBox(v)
	if v[0] != 0 || v[1] != 0.5 || v[2] != 1 {
		t.Errorf("clipBox = %v", v)
	}
	w := []float64{0, 1}
	clipLinf(w, []float64{0.5, 0.5}, 0.2)
	if w[0] != 0.3 || w[1] != 0.7 {
		t.Errorf("clipLinf = %v", w)
	}
	if l2norm([]float64{3, 4}) != 5 {
		t.Error("l2norm wrong")
	}
	if l1norm([]float64{-3, 4}) != 7 {
		t.Error("l1norm wrong")
	}
	if opposite(0) != 1 || opposite(1) != 0 {
		t.Error("opposite wrong")
	}
}
