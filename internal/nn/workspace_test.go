package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
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
				layers = append(layers, NewDropout(fmt.Sprintf("drop%d", b), 0.25))
				rng.Int63() // one draw per dropout pins the architectures a seed yields
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
		rng.Int63() // dropF's draw
		layers = append(layers,
			NewDense("fc1", ch*length, hidden, wrng),
			NewReLU("reluF"),
			NewDropout("dropF", 0.5),
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
// dropouts) and random inputs, every workspace query — eval forward,
// probs, predict, loss gradient, Jacobian — the train-mode forward pass
// of a train plan, and TrainStep's backward pass with parameter
// accumulation are bit-for-bit identical to the test oracle.
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
		o := newOracle(net)
		dim := net.InputDim()

		for rep := 0; rep < 3; rep++ {
			x := randVec(rng, dim)

			bitsEqual(t, "eval logits", ws.Logits(x), o.Logits(x))
			bitsEqual(t, "probs", ws.Probs(x), o.Probs(x))
			if gp, gn := ws.Predict(x), o.Predict(x); gp != gn {
				t.Fatalf("predict: ws %d oracle %d", gp, gn)
			}

			// Train-mode forward: align the dropout streams first.
			seed := rng.Int63()
			o.Reseed(seed)
			ws.Reseed(seed)
			bitsEqual(t, "train logits", trainLogits(ws, x), o.Forward(x, true))

			label := rng.Intn(net.NumClasses())
			wl, wg := ws.LossGrad(x, label)
			nl, ng := o.LossGrad(x, label)
			if math.Float64bits(wl) != math.Float64bits(nl) {
				t.Fatalf("loss: ws %v oracle %v", wl, nl)
			}
			bitsEqual(t, "loss input-grad", wg, ng)

			wjl, wj := ws.Jacobian(x)
			njl, nj := o.Jacobian(x)
			bitsEqual(t, "jacobian logits", wjl, njl)
			for r := range nj {
				bitsEqual(t, fmt.Sprintf("jacobian row %d", r), wj[r], nj[r])
			}

			// Full backward with parameter accumulation, train mode:
			// run TrainStep on the workspace and the equivalent
			// composition on the oracle, then compare every Param.G of
			// the private views bitwise.
			o.Reseed(seed)
			ws.Reseed(seed)
			net.ZeroGrad()
			view.ZeroGrad()
			weight := 1.0
			if rep == 1 {
				weight = 1.75
			}
			wloss, _ := ws.TrainStep(x, label, weight)
			logits := o.Forward(x, true)
			oloss, dLogits := softmaxCE(logits, label)
			if weight != 1 {
				oloss *= weight
				for j := range dLogits {
					dLogits[j] *= weight
				}
			}
			o.Backward(dLogits)
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
// the single-row queries equal the oracle bit for bit, forward and
// backward.
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
	o := newOracle(net)
	for rep := 0; rep < 5; rep++ {
		x := randVec(rng, net.InputDim())
		bitsEqual(t, "zero-tap logits", ws.Logits(x), o.Logits(x))
		label := rep % 2
		wl, wg := ws.LossGrad(x, label)
		nl, ng := o.LossGrad(x, label)
		if math.Float64bits(wl) != math.Float64bits(nl) {
			t.Fatalf("zero-tap loss: ws %v oracle %v", wl, nl)
		}
		bitsEqual(t, "zero-tap grad", wg, ng)
	}
}

// TestWorkspaceBatchAPIs pins ProbsBatch to its single-call counterpart
// and to the oracle, Predict to the oracle, and checks ProbsBatch's
// dst-reuse contract.
func TestWorkspaceBatchAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := PaperCNN(2)
	ws := net.WS()
	n := 12
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = randVec(rng, net.InputDim())
	}

	o := newOracle(net)
	probs := ws.ProbsBatch(xs, nil)
	for i := range xs {
		bitsEqual(t, "batch probs", probs[i], o.Probs(xs[i]))
		bitsEqual(t, "batch probs vs Probs", probs[i], ws.Probs(xs[i]))
		if got, want := ws.Predict(xs[i]), o.Predict(xs[i]); got != want {
			t.Fatalf("predict %d: got %d want %d", i, got, want)
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
// validation — a wrong-length or missing input is ErrBadInput, never a
// panic — and a returned slice that does not alias workspace internals.
func TestWorkspaceSafeProbs(t *testing.T) {
	net := PaperCNN(4)
	ws := net.WS()
	for _, bad := range [][]float64{make([]float64, 7), {1, 2}, nil} {
		if _, err := ws.SafeProbs(bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("SafeProbs(%d features): want ErrBadInput, got %v", len(bad), err)
		}
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

// TestWorkspaceAllocFree is the allocation-regression gate: a training
// step and every attack-side query on the paper architecture — LossGrad,
// Jacobian, Probs, Predict, and Logits followed by InputGrad (the C&W,
// EAD and DeepFool iteration) — run with zero allocations in steady
// state.
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
	if n := testing.AllocsPerRun(50, func() { ws.Predict(x) }); n > 0 {
		t.Errorf("Predict allocates %v/op, want 0", n)
	}
	margin := []float64{1, -1}
	if n := testing.AllocsPerRun(50, func() { ws.Logits(x); ws.InputGrad(margin) }); n > 0 {
		t.Errorf("Logits+InputGrad allocates %v/op, want 0", n)
	}
}

// TestQueryLogitsSurviveBackward pins the contract the attack loops rely
// on (C&W and DeepFool read the logits after their gradient calls, JSMA
// after Jacobian's backward passes): the logits Logits returns are bit
// for bit unchanged by the InputGrad calls that follow it, and so are the
// logits Jacobian returns by its own backward passes and a later
// InputGrad.
func TestQueryLogitsSurviveBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, net := range []*Network{PaperCNN(6), SmallMLP(5, 16, 24, 3)} {
		ws := NewWorkspace(net.CloneShared())
		o := newOracle(net)
		nc := net.NumClasses()
		for rep := 0; rep < 4; rep++ {
			x := randVec(rng, net.InputDim())
			want := o.Logits(x)
			logits := ws.Logits(x)
			for k := 0; k < nc; k++ {
				seed := make([]float64, nc)
				seed[k], seed[(k+1)%nc] = 1, -1
				ws.InputGrad(seed)
				bitsEqual(t, "logits after InputGrad", logits, want)
			}
			jl, _ := ws.Jacobian(x)
			bitsEqual(t, "Jacobian logits", jl, want)
			ws.InputGrad(make([]float64, nc))
			bitsEqual(t, "Jacobian logits after InputGrad", jl, want)
		}
	}
}
