package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"advmal/internal/tensor"
)

// buildRandomNet builds a random conv/pool/dropout/dense stack for the
// bit-identity property test: kernel sizes 1/3/5, both paddings, with
// enough variety to hit every workspace kernel including the fused k=3
// interior/edge splits at small lengths.
func buildRandomNet(rng *rand.Rand) *Network {
	for {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		length := 5 + rng.Intn(28)
		ch := 1
		classes := 2 + rng.Intn(3)
		inLen := length
		var layers []Layer
		ok := true
		blocks := 1 + rng.Intn(3)
		for b := 0; b < blocks; b++ {
			k := []int{1, 3, 3, 3, 5}[rng.Intn(5)]
			same := rng.Intn(2) == 0
			if !same && length < k {
				same = true
			}
			cout := 1 + rng.Intn(8)
			layers = append(layers, NewConv1D(fmt.Sprintf("conv%d", b), ch, cout, k, same, wrng))
			if !same {
				length = length - k + 1
			}
			ch = cout
			layers = append(layers, NewReLU(fmt.Sprintf("relu%d", b)))
			if length >= 2 && rng.Intn(2) == 0 {
				layers = append(layers, NewMaxPool1D(fmt.Sprintf("pool%d", b), 2))
				length /= 2
			}
			if rng.Intn(2) == 0 {
				layers = append(layers, NewDropout(fmt.Sprintf("drop%d", b), 0.25, rng.Int63()))
			}
			if length < 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		layers = append(layers, NewFlatten("flatten"))
		hidden := 4 + rng.Intn(24)
		layers = append(layers,
			NewDense("fc1", ch*length, hidden, wrng),
			NewReLU("reluF"),
			NewDropout("dropF", 0.5, rng.Int63()),
			NewDense("logits", hidden, classes, wrng),
		)
		return NewNetwork([]int{1, inLen}, classes, layers...)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), oracle %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestWorkspaceBitIdentical is the central property test: on random
// architectures (kernel sizes 1/3/5, both paddings, random pools and
// dropouts) and random inputs, every workspace query — eval and train
// forward, probs, loss gradient, Jacobian, and full backward with
// parameter accumulation — is bit-for-bit identical to the allocating
// oracle.
func TestWorkspaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		net := buildRandomNet(rng)
		view := net.CloneShared()
		ws := NewWorkspace(view)
		dim := net.InputDim()

		for rep := 0; rep < 3; rep++ {
			x := randVec(rng, dim)

			bitsEqual(t, "eval logits", ws.Logits(x), net.Logits(x))
			bitsEqual(t, "probs", ws.Probs(x), net.Probs(x))
			if gp, gn := ws.Predict(x), net.Predict(x); gp != gn {
				t.Fatalf("predict: ws %d oracle %d", gp, gn)
			}

			// Train-mode forward: align the dropout streams first.
			seed := rng.Int63()
			net.Reseed(seed)
			ws.Reseed(seed)
			bitsEqual(t, "train logits", ws.Forward(x, true), net.Forward(x, true))

			label := rng.Intn(net.NumClasses())
			wl, wg := ws.LossGrad(x, label)
			nl, ng := net.LossGrad(x, label)
			if math.Float64bits(wl) != math.Float64bits(nl) {
				t.Fatalf("loss: ws %v oracle %v", wl, nl)
			}
			bitsEqual(t, "loss input-grad", wg, ng)

			wjl, wj := ws.Jacobian(x)
			njl, nj := net.Jacobian(x)
			bitsEqual(t, "jacobian logits", wjl, njl)
			for r := range nj {
				bitsEqual(t, fmt.Sprintf("jacobian row %d", r), wj[r], nj[r])
			}

			// Full backward with parameter accumulation, train mode:
			// run TrainStep on the workspace and the equivalent
			// composition on the oracle, then compare every Param.G of
			// the private views bitwise.
			net.Reseed(seed)
			ws.Reseed(seed)
			net.ZeroGrad()
			ws.ZeroGrad()
			weight := 1.0
			if rep == 1 {
				weight = 1.75
			}
			wloss, _ := ws.TrainStep(x, label, weight)
			logits := net.Forward(x, true)
			oloss, dLogits := SoftmaxCE(logits, label)
			if weight != 1 {
				oloss *= weight
				for j := range dLogits {
					dLogits[j] *= weight
				}
			}
			net.Backward(dLogits)
			if math.Float64bits(wloss) != math.Float64bits(oloss) {
				t.Fatalf("train loss: ws %v oracle %v", wloss, oloss)
			}
			op, wp := net.Params(), view.Params()
			for pi := range op {
				bitsEqual(t, "param grad "+op[pi].Name, wp[pi].G, op[pi].G)
			}
		}
	}
}

// TestWorkspaceZeroTapFallback pins the zero-weight case. The product of
// a zero tap is added like any other, by the oracle and by every kernel —
// adding +0 can still turn a -0 accumulator into +0, so a kernel that
// skipped it would differ — and with one tap of every weight row zeroed
// the per-row path equals the oracle bit for bit, forward and backward.
func TestWorkspaceZeroTapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := PaperCNN(3)
	// Zero one tap of each k=3 conv weight row in the first conv layers.
	for _, l := range net.Layers() {
		if c, ok := l.(*Conv1D); ok {
			for i := 0; i < len(c.w.W); i += 3 {
				c.w.W[i+rng.Intn(3)] = 0
			}
		}
	}
	ws := NewWorkspace(net.CloneShared())
	for rep := 0; rep < 5; rep++ {
		x := randVec(rng, net.InputDim())
		bitsEqual(t, "zero-tap logits", ws.Logits(x), net.Logits(x))
		label := rep % 2
		wl, wg := ws.LossGrad(x, label)
		nl, ng := net.LossGrad(x, label)
		if math.Float64bits(wl) != math.Float64bits(nl) {
			t.Fatalf("zero-tap loss: ws %v oracle %v", wl, nl)
		}
		bitsEqual(t, "zero-tap grad", wg, ng)
	}
}

// scaleLayer is a Layer type the workspace has no kernel for, to exercise
// the oracleKernel fallback.
type scaleLayer struct{ f float64 }

func (s *scaleLayer) Name() string       { return "scale" }
func (s *scaleLayer) Params() []*Param   { return nil }
func (s *scaleLayer) CloneShared() Layer { return &scaleLayer{f: s.f} }
func (s *scaleLayer) Forward(x *tensor.T, _ bool) *tensor.T {
	y := x.Clone()
	for i := range y.Data {
		y.Data[i] *= s.f
	}
	return y
}
func (s *scaleLayer) Backward(g *tensor.T) *tensor.T {
	d := g.Clone()
	for i := range d.Data {
		d.Data[i] *= s.f
	}
	return d
}

func TestWorkspaceFallbackKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wrng := newTestRNG()
	net := NewNetwork([]int{6}, 2,
		NewDense("fc1", 6, 12, wrng),
		&scaleLayer{f: 0.5},
		NewReLU("relu"),
		NewDense("fc2", 12, 2, wrng),
	)
	ws := NewWorkspace(net.CloneShared())
	for rep := 0; rep < 4; rep++ {
		x := randVec(rng, 6)
		bitsEqual(t, "fallback logits", ws.Logits(x), net.Logits(x))
		_, wg := ws.LossGrad(x, 1)
		_, ng := net.LossGrad(x, 1)
		bitsEqual(t, "fallback grad", wg, ng)
	}
}

// TestWorkspaceBatchAPIs pins ProbsBatch/PredictBatch to their single-call
// counterparts and checks the dst-reuse contract.
func TestWorkspaceBatchAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := PaperCNN(2)
	ws := net.WS()
	n := 12
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = randVec(rng, net.InputDim())
	}

	probs := ws.ProbsBatch(xs, nil)
	preds := ws.PredictBatch(xs, nil)
	for i := range xs {
		bitsEqual(t, "batch probs", probs[i], net.Probs(xs[i]))
		if want := net.Predict(xs[i]); preds[i] != want {
			t.Fatalf("batch predict %d: got %d want %d", i, preds[i], want)
		}
	}

	// Reusing the returned buffers must not allocate new rows.
	p0 := probs[0]
	probs = ws.ProbsBatch(xs, probs)
	if &probs[0][0] != &p0[0] {
		t.Fatal("batch APIs did not reuse caller buffers")
	}
}

// TestWorkspaceSafeProbs covers the serving-path contract: dimension
// validation, and a returned slice that does not alias workspace
// internals.
func TestWorkspaceSafeProbs(t *testing.T) {
	net := PaperCNN(4)
	ws := net.WS()
	if _, err := ws.SafeProbs(make([]float64, 7)); err == nil {
		t.Fatal("SafeProbs accepted a wrong-dimension input")
	}
	x := randVec(rand.New(rand.NewSource(3)), net.InputDim())
	p, err := ws.SafeProbs(x)
	if err != nil {
		t.Fatalf("SafeProbs: %v", err)
	}
	// Mutating the workspace afterwards must not change p.
	keep := append([]float64(nil), p...)
	ws.Probs(randVec(rand.New(rand.NewSource(4)), net.InputDim()))
	bitsEqual(t, "retained probs", p, keep)
}

// TestWorkspaceAllocFree is the allocation-regression gate from the
// issue: steady-state Forward+Backward (and the attack-side gradient
// queries) on the paper architecture run with zero allocations.
func TestWorkspaceAllocFree(t *testing.T) {
	net := PaperCNN(1)
	ws := net.WS()
	x := randVec(rand.New(rand.NewSource(2)), net.InputDim())

	// Warm up once (lazy nothing remains, but keep the measurement pure).
	ws.TrainStep(x, 1, 1)
	ws.LossGrad(x, 1)

	if n := testing.AllocsPerRun(50, func() { ws.TrainStep(x, 1, 1) }); n > 0 {
		t.Errorf("TrainStep allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { ws.LossGrad(x, 0) }); n > 0 {
		t.Errorf("LossGrad allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { ws.Jacobian(x) }); n > 0 {
		t.Errorf("Jacobian allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { ws.Probs(x) }); n > 0 {
		t.Errorf("Probs allocates %v/op, want 0", n)
	}
}
