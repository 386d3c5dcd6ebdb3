package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestFig5ArchitectureShapes verifies the exact tensor shapes the paper
// reports for every block of the CNN (§IV-B1): 46x23 -> 46x21 -> 46x10 ->
// 92x10 -> 92x8 -> 92x4 -> 368 -> 512 -> 2.
func TestFig5ArchitectureShapes(t *testing.T) {
	net := PaperCNN(1)
	wantShapes := map[string][]int{
		"conv1":   {46, 23},
		"conv2":   {46, 21},
		"pool1":   {46, 10},
		"conv3":   {92, 10},
		"conv4":   {92, 8},
		"pool2":   {92, 4},
		"flatten": {368},
		"fc1":     {512},
		"logits":  {2},
	}
	cur := []int{1, PaperInputLen}
	for _, l := range net.Layers() {
		cur = l.outShape(cur)
		want, ok := wantShapes[l.Name()]
		if !ok {
			continue
		}
		if len(cur) != len(want) {
			t.Fatalf("%s: shape %v, want %v", l.Name(), cur, want)
		}
		for i := range want {
			if cur[i] != want[i] {
				t.Fatalf("%s: shape %v, want %v", l.Name(), cur, want)
			}
		}
	}
	if net.NumParams() == 0 {
		t.Error("no parameters")
	}
}

// fig5Summary is PaperCNN(1).Summary() as repro and repro train print it.
const fig5Summary = `Input: [1 23]
conv1        -> [46           23          ] params=184
relu1        -> [46           23          ] params=0
conv2        -> [46           21          ] params=6394
relu2        -> [46           21          ] params=0
pool1        -> [46           10          ] params=0
drop1        -> [46           10          ] params=0
conv3        -> [92           10          ] params=12788
relu3        -> [92           10          ] params=0
conv4        -> [92           8           ] params=25484
relu4        -> [92           8           ] params=0
pool2        -> [92           4           ] params=0
drop2        -> [92           4           ] params=0
flatten      -> [368         ] params=0
fc1          -> [512         ] params=188928
relu5        -> [512         ] params=0
drop3        -> [512         ] params=0
logits       -> [2           ] params=1026
Total params: 234804
`

func TestSummaryMentionsEveryLayer(t *testing.T) {
	s := PaperCNN(1).Summary()
	for _, name := range []string{"conv1", "conv4", "pool2", "flatten", "fc1", "logits", "Total params"} {
		if !strings.Contains(s, name) {
			t.Errorf("Summary missing %q:\n%s", name, s)
		}
	}
	if s != fig5Summary {
		t.Errorf("Summary changed:\n%s\nwant:\n%s", s, fig5Summary)
	}
}

// layerWS runs a single layer on a workspace: a network of just l on
// inputs of shape in, whose "logits" are the layer's output.
func layerWS(in []int, l Layer) *Workspace {
	return NewWorkspace(NewNetwork(in, shapeSize(l.outShape(in)), l))
}

// trainLogits runs the train-mode forward pass on one row, on the
// workspace's train plan, and returns the logits.
func trainLogits(ws *Workspace, x []float64) []float64 {
	bp := ws.plan(1, planTrain)
	bp.load(0, x)
	ws.forwardRows(bp, 1)
	last := len(bp.acts) - 1
	return bp.acts[last][:bp.sizes[last]] // the arena holds four rows
}

func TestReLU(t *testing.T) {
	ws := layerWS([]int{3}, NewReLU("r"))
	out := ws.Logits([]float64{-1, 0, 2})
	want := []float64{0, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("relu[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	grad := ws.InputGrad([]float64{5, 5, 5})
	wantG := []float64{0, 0, 5}
	for i := range wantG {
		if grad[i] != wantG[i] {
			t.Errorf("relu grad[%d] = %v, want %v", i, grad[i], wantG[i])
		}
	}
}

func TestMaxPool(t *testing.T) {
	m := NewMaxPool1D("m", 2)
	if shape := m.outShape([]int{2, 5}); len(shape) != 2 || shape[0] != 2 || shape[1] != 2 {
		t.Fatalf("pool out shape %v, want (2,2)", shape)
	}
	ws := layerWS([]int{2, 5}, m)
	out := ws.Logits([]float64{
		1, 3, 2, 2, 9, // trailing 9 dropped (odd length)
		4, 1, 0, 5, 7,
	})
	want := []float64{3, 2, 4, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("pool[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	grad := ws.InputGrad([]float64{10, 20, 30, 40})
	wantG := []float64{0, 10, 20, 0, 0, 30, 0, 0, 40, 0}
	for i := range wantG {
		if grad[i] != wantG[i] {
			t.Errorf("pool grad[%d] = %v, want %v", i, grad[i], wantG[i])
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	ws := layerWS([]int{3}, NewDropout("d", 0.5))
	in := []float64{1, 2, 3}
	out := ws.Logits(in)
	for i := range in {
		if out[i] != in[i] {
			t.Error("dropout at eval changed values")
		}
	}
	// The input gradient after an eval forward is the identity too.
	g := ws.InputGrad([]float64{4, 5, 6})
	if g[0] != 4 {
		t.Error("dropout backward after eval not identity")
	}
}

func TestDropoutTrainScalesSurvivors(t *testing.T) {
	n := 10000
	ws := layerWS([]int{n}, NewDropout("d", 0.5))
	ws.Reseed(42)
	in := make([]float64, n)
	for i := range in {
		in[i] = 1
	}
	out := trainLogits(ws, in)
	var sum float64
	zeros := 0
	for _, v := range out {
		switch v {
		case 0:
			zeros++
		case 2:
			sum += v
		default:
			t.Fatalf("unexpected dropout output %v (want 0 or 2)", v)
		}
	}
	if zeros < n/3 || zeros > 2*n/3 {
		t.Errorf("dropped %d of %d, want ~half", zeros, n)
	}
	// Inverted dropout keeps the expectation: sum should be near n.
	if math.Abs(sum-float64(n)) > float64(n)/10 {
		t.Errorf("survivor mass = %v, want ~%d", sum, n)
	}
}

func TestDropoutReseedReproduces(t *testing.T) {
	ws := layerWS([]int{64}, NewDropout("d", 0.5))
	in := make([]float64, 64)
	for i := range in {
		in[i] = 1
	}
	ws.Reseed(99)
	a := append([]float64(nil), trainLogits(ws, in)...)
	ws.Reseed(99)
	b := trainLogits(ws, in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Reseed did not reproduce the mask stream")
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	if shape := f.outShape([]int{2, 3}); len(shape) != 1 || shape[0] != 6 {
		t.Fatalf("flatten shape %v", shape)
	}
	ws := layerWS([]int{2, 3}, f)
	in := []float64{1, 2, 3, 4, 5, 6}
	bitsEqual(t, "flatten forward", ws.Logits(in), in)
	bitsEqual(t, "flatten train forward", trainLogits(ws, in), in)
	bitsEqual(t, "flatten backward", ws.InputGrad(in), in)
}

// requirePanicNaming runs f and requires it to panic with a message that
// names the layer.
func requirePanicNaming(t *testing.T, layer string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("mis-wired %s was accepted", layer)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, layer) {
			t.Fatalf("panic %q does not name layer %s", msg, layer)
		}
	}()
	f()
}

func TestDensePanicsOnWrongInput(t *testing.T) {
	requirePanicNaming(t, "fc9", func() {
		NewWorkspace(NewNetwork([]int{3}, 2, NewDense("fc9", 4, 2, newTestRNG())))
	})
	// A stack whose first layer is right and second is not fails too.
	requirePanicNaming(t, "fc2", func() {
		rng := newTestRNG()
		NewWorkspace(NewNetwork([]int{4}, 2, NewDense("fc1", 4, 8, rng), NewDense("fc2", 6, 2, rng)))
	})
}

func TestConvPanicsOnWrongChannels(t *testing.T) {
	requirePanicNaming(t, "conv9", func() {
		NewWorkspace(NewNetwork([]int{3, 5}, 2, NewConv1D("conv9", 2, 4, 3, true, newTestRNG())))
	})
}

func TestCloneSharedSharesWeightsNotGrads(t *testing.T) {
	net := SmallMLP(3, 4, 8, 2)
	clone := net.CloneShared()
	p0 := net.Params()[0]
	c0 := clone.Params()[0]
	if &p0.W[0] != &c0.W[0] {
		t.Error("CloneShared must share weight storage")
	}
	if &p0.G[0] == &c0.G[0] {
		t.Error("CloneShared must not share gradient storage")
	}
	// Clone forward/backward must not clobber the original's buffers.
	x := []float64{1, 0, -1, 2}
	want := append([]float64(nil), net.WS().Logits(x)...)
	clone.WS().LossGrad([]float64{9, 9, 9, 9}, 0)
	got := net.WS().Logits(x)
	for i := range want {
		if want[i] != got[i] {
			t.Error("clone activity changed original outputs")
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := SoftmaxInto(make([]float64, 2), []float64{1, 1})
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Errorf("Softmax(1,1) = %v", p)
	}
	// Large logits must not overflow.
	p = SoftmaxInto(p, []float64{1000, 0})
	if math.IsNaN(p[0]) || p[0] < 0.999 {
		t.Errorf("Softmax(1000,0) = %v", p)
	}
	var sum float64
	for _, x := range SoftmaxInto(make([]float64, 3), []float64{0.3, -2, 5}) {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
}

func TestSoftmaxCE(t *testing.T) {
	grad := make([]float64, 2)
	loss := softmaxCEInto(grad, []float64{0, 0}, 1)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Errorf("loss = %v, want ln 2", loss)
	}
	if math.Abs(grad[0]-0.5) > 1e-12 || math.Abs(grad[1]+0.5) > 1e-12 {
		t.Errorf("grad = %v, want [0.5 -0.5]", grad)
	}
	// Saturated wrong prediction has huge but finite loss.
	loss = softmaxCEInto(grad, []float64{1000, 0}, 1)
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Errorf("saturated loss = %v", loss)
	}
}

func TestArgmax(t *testing.T) {
	tests := []struct {
		in   []float64
		want int
	}{
		{[]float64{1, 3, 2}, 1},
		{[]float64{5}, 0},
		{[]float64{2, 2}, 0}, // first on ties
		{[]float64{-5, -1, -3}, 1},
	}
	for _, tc := range tests {
		if got := Argmax(tc.in); got != tc.want {
			t.Errorf("Argmax(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
