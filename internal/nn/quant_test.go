package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quantTolerance is the calibrated probability tolerance the int8 engine
// is held to against the float64 oracle: with per-tensor affine codes
// (≤255 levels per tensor) and calibrated activation ranges, the
// end-to-end probability error stays well under this bound on inputs
// drawn from the calibrated distribution; the property tests below pin
// it across random architectures, seeds, and a trained model. The serve
// tier's borderline band (default 0.2 top-two margin) is an order of
// magnitude wider, so a bulk-tier score can never be quantization noise
// away from flipping without the row escalating to the float engine.
const quantTolerance = 0.08

// quantBand is the borderline top-two-probability margin used by the
// agreement property: samples whose float margin exceeds the band must
// agree on argmax ≥99.9% of the time.
const quantBand = 0.2

// calibSamples draws n random inputs spanning roughly the scaled-feature
// range the pipeline produces, with some mass outside [0, 1] so the
// calibration covers attack-perturbed vectors too.
func calibSamples(rng *rand.Rand, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()*1.4 - 0.2
		}
		xs[i] = v
	}
	return xs
}

// quantArch bundles one architecture under quantization test.
type quantArch struct {
	name string
	net  *Network
}

func quantArchs(t *testing.T) []quantArch {
	t.Helper()
	archs := []quantArch{
		{"paper-cnn/3", PaperCNN(3)},
		{"paper-cnn/17", PaperCNN(17)},
		{"small-mlp-23-32-2", SmallMLP(5, 23, 32, 2)},
		{"small-mlp-10-16-3", SmallMLP(6, 10, 16, 3)},
	}
	// One trained, confidently separating model: quantization error on
	// saturated logits is the case Table I cares about.
	trained := SmallMLP(7, 23, 48, 2)
	x, y := blobs(21, 240, 23)
	tr := &Trainer{Epochs: 15, BatchSize: 32, Seed: 9}
	if _, err := tr.Fit(trained, x, y); err != nil {
		t.Fatalf("train small mlp: %v", err)
	}
	archs = append(archs, quantArch{"trained-mlp", trained})
	return archs
}

// TestQuantProbsCloseToFloat is the headline property: across random
// architectures and inputs drawn from the calibrated range, the int8
// engine's probabilities stay within quantTolerance of the float64
// oracle, and argmax agreement away from the borderline band is ≥99.9%.
func TestQuantProbsCloseToFloat(t *testing.T) {
	for _, a := range quantArchs(t) {
		t.Run(a.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			dim := a.net.InputDim()
			calib, err := Calibrate(a.net, calibSamples(rng, 400, dim))
			if err != nil {
				t.Fatalf("Calibrate: %v", err)
			}
			qm, err := Quantize(a.net, calib)
			if err != nil {
				t.Fatalf("Quantize: %v", err)
			}
			qws := qm.NewWS()
			fws := a.net.CloneShared().WS()

			const samples = 3000
			var maxDelta, sumDelta float64
			confident, disagree := 0, 0
			for s := 0; s < samples; s++ {
				x := calibSamples(rng, 1, dim)[0]
				pf := append([]float64(nil), fws.Probs(x)...)
				pq := qws.Probs(x)
				for k := range pf {
					d := math.Abs(pf[k] - pq[k])
					sumDelta += d / float64(len(pf))
					if d > maxDelta {
						maxDelta = d
					}
				}
				top, second := topTwo(pf)
				if pf[top]-pf[second] > quantBand {
					confident++
					if Argmax(pq) != top {
						disagree++
					}
				}
			}
			t.Logf("%s: max|Δp|=%.4f mean|Δp|=%.5f confident=%d disagree=%d",
				a.name, maxDelta, sumDelta/samples, confident, disagree)
			if maxDelta > quantTolerance {
				t.Errorf("max |p_quant - p_float| = %.4f exceeds calibrated tolerance %.2f",
					maxDelta, quantTolerance)
			}
			if confident > 0 {
				agree := 1 - float64(disagree)/float64(confident)
				if agree < 0.999 {
					t.Errorf("argmax agreement %.4f < 0.999 on %d samples outside the %.2f band",
						agree, confident, quantBand)
				}
			}
		})
	}
}

func topTwo(p []float64) (top, second int) {
	top = Argmax(p)
	second = -1
	for i := range p {
		if i == top {
			continue
		}
		if second < 0 || p[i] > p[second] {
			second = i
		}
	}
	if second < 0 {
		second = top
	}
	return top, second
}

// TestQuantDeterministic pins the quantized path to byte-identical
// outputs across calls and across independent workspaces over the same
// model — all arithmetic is integer plus one fixed-rounding float
// rescale, so there is nothing scheduling- or state-dependent.
func TestQuantDeterministic(t *testing.T) {
	net := PaperCNN(23)
	rng := rand.New(rand.NewSource(3))
	calib, err := Calibrate(net, calibSamples(rng, 100, net.InputDim()))
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	qm, err := Quantize(net, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	a, b := qm.NewWS(), qm.NewWS()
	for s := 0; s < 50; s++ {
		x := calibSamples(rng, 1, net.InputDim())[0]
		pa := append([]float64(nil), a.Probs(x)...)
		pb := b.Probs(x)
		pa2 := a.Probs(x)
		for k := range pa {
			if math.Float64bits(pa[k]) != math.Float64bits(pb[k]) ||
				math.Float64bits(pa[k]) != math.Float64bits(pa2[k]) {
				t.Fatalf("sample %d class %d: %v %v %v", s, k, pa[k], pb[k], pa2[k])
			}
		}
	}
}

// TestQuantProbsBatch pins ProbsBatch to the per-row path bit-for-bit
// and checks dst reuse semantics match Workspace.ProbsBatch.
func TestQuantProbsBatch(t *testing.T) {
	net := SmallMLP(11, 23, 32, 2)
	rng := rand.New(rand.NewSource(4))
	calib, err := Calibrate(net, calibSamples(rng, 50, 23))
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	qm, err := Quantize(net, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	ws := qm.NewWS()
	xs := calibSamples(rng, 17, 23)
	var dst [][]float64
	dst = ws.ProbsBatch(xs, dst)
	if len(dst) != len(xs) {
		t.Fatalf("got %d rows, want %d", len(dst), len(xs))
	}
	ref := qm.NewWS()
	for r, x := range xs {
		p := ref.Probs(x)
		for k := range p {
			if math.Float64bits(p[k]) != math.Float64bits(dst[r][k]) {
				t.Fatalf("row %d class %d: batch %v per-row %v", r, k, dst[r][k], p[k])
			}
		}
	}
	// Reuse must not allocate new rows.
	again := ws.ProbsBatch(xs[:5], dst)
	if &again[0][0] != &dst[0][0] {
		t.Fatalf("dst rows were reallocated on reuse")
	}
}

// TestQuantSafeProbs checks the serving-path error boundary: dimension
// mismatch is an ErrBadInput error, not a panic, and the returned slice
// is fresh (not aliased to workspace buffers).
func TestQuantSafeProbs(t *testing.T) {
	net := SmallMLP(13, 23, 16, 2)
	rng := rand.New(rand.NewSource(5))
	calib, err := Calibrate(net, calibSamples(rng, 20, 23))
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	qm, err := Quantize(net, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	ws := qm.NewWS()
	if _, err := ws.SafeProbs(make([]float64, 7)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short input: got %v, want ErrBadInput", err)
	}
	x := calibSamples(rng, 1, 23)[0]
	p1, err := ws.SafeProbs(x)
	if err != nil {
		t.Fatalf("SafeProbs: %v", err)
	}
	p2, err := ws.SafeProbs(calibSamples(rng, 1, 23)[0])
	if err != nil {
		t.Fatalf("SafeProbs: %v", err)
	}
	if &p1[0] == &p2[0] {
		t.Fatalf("SafeProbs returned aliased slices")
	}
	// Saturating inputs (way outside calibration) must still produce
	// finite probabilities — they clamp, not overflow.
	huge := make([]float64, 23)
	for i := range huge {
		huge[i] = 1e18 * float64(1-2*(i%2))
	}
	p, err := ws.SafeProbs(huge)
	if err != nil {
		t.Fatalf("SafeProbs(huge): %v", err)
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite prob %v on saturating input", v)
		}
	}
}

// TestQuantErrors covers the compile-time guard rails.
func TestQuantErrors(t *testing.T) {
	net := SmallMLP(17, 8, 8, 2)
	if _, err := Quantize(net, nil); !errors.Is(err, ErrNoCalibration) {
		t.Fatalf("nil calibration: got %v", err)
	}
	if _, err := Quantize(net, &Calibration{Min: []float64{0}, Max: []float64{1}}); !errors.Is(err, ErrNoCalibration) {
		t.Fatalf("short calibration: got %v", err)
	}
	if _, err := Calibrate(net, nil); !errors.Is(err, ErrNoCalibration) {
		t.Fatalf("empty set: got %v", err)
	}
	if _, err := Calibrate(net, [][]float64{make([]float64, 3)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad dim: got %v", err)
	}
	// A network ending in ReLU after the last Dense is not quantizable.
	rng := rand.New(rand.NewSource(1))
	bad := NewNetwork([]int{4}, 2,
		NewDense("fc", 4, 2, rng),
		NewReLU("relu"),
	)
	calib, err := Calibrate(bad, [][]float64{{0.1, 0.2, 0.3, 0.4}})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if _, err := Quantize(bad, calib); !errors.Is(err, ErrQuantUnsupported) {
		t.Fatalf("trailing relu: got %v", err)
	}
}

// TestQuantAllocFree pins the steady-state quantized forward to zero
// allocations, matching the float workspace's contract.
func TestQuantAllocFree(t *testing.T) {
	net := PaperCNN(29)
	rng := rand.New(rand.NewSource(6))
	calib, err := Calibrate(net, calibSamples(rng, 30, net.InputDim()))
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	qm, err := Quantize(net, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	ws := qm.NewWS()
	x := calibSamples(rng, 1, net.InputDim())[0]
	ws.Probs(x)
	if n := testing.AllocsPerRun(50, func() { ws.Probs(x) }); n != 0 {
		t.Fatalf("Probs allocates %v per run, want 0", n)
	}
}

// BenchmarkQuantForward measures the quantized per-row forward against
// the float64 workspace on the paper CNN — the gap the bulk tier's
// serving speedup rests on.
func BenchmarkQuantForward(b *testing.B) {
	net := PaperCNN(31)
	rng := rand.New(rand.NewSource(8))
	calib, err := Calibrate(net, calibSamples(rng, 50, net.InputDim()))
	if err != nil {
		b.Fatalf("Calibrate: %v", err)
	}
	qm, err := Quantize(net, calib)
	if err != nil {
		b.Fatalf("Quantize: %v", err)
	}
	x := calibSamples(rng, 1, net.InputDim())[0]
	b.Run("quant", func(b *testing.B) {
		ws := qm.NewWS()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.Probs(x)
		}
	})
	b.Run("float-ws", func(b *testing.B) {
		ws := net.CloneShared().WS()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.Probs(x)
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debug logging during development
