package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleTrain runs rows through the test oracle one at a time, as the
// trainer's contract defines a training step: train-mode forward,
// softmax cross-entropy weighted by weights[label] (a weight of 1 is no
// scaling), backward with parameter accumulation. It returns each row's
// loss and hit.
func oracleTrain(o *oracle, xs [][]float64, labels []int, weights []float64) ([]float64, []bool) {
	losses, hits := make([]float64, len(xs)), make([]bool, len(xs))
	for r, x := range xs {
		logits := o.Forward(x, true)
		loss, d := softmaxCE(logits, labels[r])
		if w := weights[labels[r]]; w != 1 {
			loss *= w
			for j := range d {
				d[j] *= w
			}
		}
		losses[r], hits[r] = loss, Argmax(logits) == labels[r]
		o.Backward(d)
	}
	return losses, hits
}

// checkTrainThreeWays trains the same rows on three views of net, from
// the same dropout seed — the oracle, TrainStep row by row, and the
// trainer's batch-major share (trainShare, sub-batches of trainSub) — and
// requires every Param.G, every loss and every hit to agree: per row
// between the oracle and TrainStep, summed in row order for the share.
func checkTrainThreeWays(t *testing.T, what string, net *Network, xs [][]float64, labels []int, weights []float64, seed int64) {
	t.Helper()
	oview, sview, bview := net.CloneShared(), net.CloneShared(), net.CloneShared()
	o := newOracle(oview)
	o.Reseed(seed)
	wantLoss, wantHit := oracleTrain(o, xs, labels, weights)

	ws := NewWorkspace(sview)
	ws.Reseed(seed)
	for r, x := range xs {
		loss, hit := ws.TrainStep(x, labels[r], weights[labels[r]])
		if !sameFloat(loss, wantLoss[r]) || hit != wantHit[r] {
			t.Fatalf("%s: row %d: TrainStep loss %v hit %v, oracle %v %v", what, r, loss, hit, wantLoss[r], wantHit[r])
		}
	}

	bws := NewWorkspace(bview)
	bws.Reseed(seed)
	chunk := make([]int, len(xs))
	for i := range chunk {
		chunk[i] = i
	}
	tr := &Trainer{ClassWeights: weights}
	loss, hits := tr.trainShare(bws, nil, xs, labels, chunk, 0, 1)
	var sum float64
	var want int
	for r := range xs {
		sum += wantLoss[r]
		if wantHit[r] {
			want++
		}
	}
	if !sameFloat(loss, sum) || hits != want {
		t.Fatalf("%s: share loss %v hits %d, oracle %v %d", what, loss, hits, sum, want)
	}

	op, sp, bp := oview.Params(), sview.Params(), bview.Params()
	for pi := range op {
		sameFloats(t, what+" TrainStep "+op[pi].Name, sp[pi].G, op[pi].G)
		sameFloats(t, what+" share "+op[pi].Name, bp[pi].G, op[pi].G)
	}
}

// TestTrainRowsBitIdentical is the training counterpart of
// TestBatchForwardBitIdentical: on random architectures (kernel sizes
// 1/3/5, both paddings, random pools and dropouts), with class weights,
// and at share sizes below, at and across the sub-batch size, the
// batch-major training pass accumulates the oracle's gradients bit for
// bit.
func TestTrainRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		net := buildRandomNet(rng)
		for _, n := range []int{1, 5, trainSub, 2*trainSub + 3} {
			xs := make([][]float64, n)
			labels := make([]int, n)
			for r := range xs {
				xs[r] = randVec(rng, net.InputDim())
				labels[r] = rng.Intn(net.NumClasses())
			}
			weights := make([]float64, net.NumClasses())
			for c := range weights {
				weights[c] = []float64{1, 2.5, 0.75}[c%3]
			}
			checkTrainThreeWays(t, fmt.Sprintf("trial %d rows %d", trial, n), net, xs, labels, weights, rng.Int63())
		}
	}
}

// FuzzTrainRows is the differential fuzzer of training: on a
// conv/conv/dense/dense network whose shape — first kernel 1, 3 or 5,
// either padding, an optional pool, dropout after both blocks — weights,
// rows and labels come from the fuzz input, with class weights that may
// zero a class's gradient rows, the oracle, TrainStep row by row and the
// batch-major share agree on every Param.G, loss and hit, on every kernel
// implementation the platform has. Shares run up to 40 rows, across the
// sub-batch boundaries. The seeds below run in every `go test`.
func FuzzTrainRows(f *testing.F) {
	ordinary := []byte("\x20\x31\xf0\x47\x71\xe3\x9c\x18\x5a\xd2\x33")
	f.Add(uint8(23), uint8(46), uint8(46), uint8(64), uint8(1), uint8(17), ordinary, ordinary)                      // the paper's first block, 18 rows
	f.Add(uint8(12), uint8(5), uint8(7), uint8(9), uint8(3), uint8(33), []byte{0, 1, 2, 3, 200, 17, 90}, ordinary)  // same/same, odd widths; zero taps, denormals
	f.Add(uint8(40), uint8(8), uint8(6), uint8(16), uint8(4), uint8(5), []byte{9, 100, 101, 12}, []byte{9, 10, 11}) // k=5; overflow, Inf-Inf
	f.Add(uint8(21), uint8(4), uint8(6), uint8(7), uint8(8), uint8(39), ordinary, []byte{1, 129, 15, 240, 0, 6})    // k=1; NaN inputs
	f.Add(uint8(23), uint8(6), uint8(5), uint8(8), uint8(49), uint8(20), []byte{1, 1, 1}, []byte{32, 1})            // a pool; every weight -0; a class weighted 0
	f.Add(uint8(23), uint8(5), uint8(4), uint8(9), uint8(112), uint8(16), ordinary, []byte{32})                     // a pool, dropout, constant rows, a class weighted 0
	f.Fuzz(func(t *testing.T, length, c1, c2, hidden, flags, nrows uint8, weights, inputs []byte) {
		l := int(length) % 41
		ch1, ch2, hid := int(c1)%97, int(c2)%97, int(hidden)%65
		k1 := [...]int{3, 5, 1, 3}[flags>>2&3]
		same1, same2, pool, drop := flags&1 != 0, flags&2 != 0, flags&16 != 0, flags&64 != 0
		l2 := l
		if !same1 {
			l2 -= k1 - 1
		}
		if pool {
			l2 /= 2
		}
		l3 := l2
		if !same2 {
			l3 -= 2
		}
		if l2 < 1 || l3 < 1 || ch1 == 0 || ch2 == 0 || hid == 0 {
			return
		}
		wrng := rand.New(rand.NewSource(1))
		layers := []Layer{NewConv1D("conv1", 1, ch1, k1, same1, wrng)}
		if pool {
			layers = append(layers, NewMaxPool1D("pool1", 2))
		}
		layers = append(layers, NewReLU("relu1"))
		if drop {
			layers = append(layers, NewDropout("drop1", 0.25))
		}
		layers = append(layers,
			NewConv1D("conv2", ch1, ch2, 3, same2, wrng),
			NewFlatten("flatten"),
			NewDense("fc1", ch2*l3, hid, wrng),
			NewReLU("relu2"),
		)
		if drop {
			layers = append(layers, NewDropout("drop2", 0.5))
		}
		layers = append(layers, NewDense("logits", hid, 3, wrng))
		net := NewNetwork([]int{1, l}, 3, layers...)
		if len(weights) > 0 {
			next := 0
			for _, p := range net.Params() {
				for i := 0; i < len(p.W); i += 1 + len(weights)%5 {
					p.W[i] = fuzzValue(weights[next%len(weights)])
					next++
				}
			}
		}
		n := 1 + int(nrows)%40
		xs := make([][]float64, n)
		labels := make([]int, n)
		for r := range xs {
			xs[r] = make([]float64, l)
			for i := range xs[r] {
				xs[r][i] = 0.5 + float64(r)/8
				if len(inputs) > 0 {
					xs[r][i] = fuzzValue(inputs[(r*l+i)%len(inputs)])
				}
			}
			labels[r] = r % 3
			if len(inputs) > 0 {
				labels[r] = int(inputs[r%len(inputs)]) % 3
			}
		}
		// flags bit 5 weights one class 0: its rows' logit gradients are
		// all zero (or NaN on a NaN loss), so Dense skips them everywhere.
		classWeights := []float64{1, 2.5, 0.75}
		if flags&32 != 0 {
			classWeights = []float64{1, 0, 1}
		}
		eachKernelImpl(t, func(impl string) {
			checkTrainThreeWays(t, impl, net, xs, labels, classWeights, int64(flags)+int64(n))
		})
	})
}

// oracleAdam is the reference Adam step, in the plainest loop: Adam.Step's
// arithmetic, expression for expression, with no kernel underneath.
type oracleAdam struct {
	t    int
	m, v [][]float64
}

func (a *oracleAdam) step(params []*Param, scale float64) {
	lr, b1, b2, eps := 1e-3, 0.9, 0.999, 1e-8
	if a.m == nil {
		for _, p := range params {
			a.m = append(a.m, make([]float64, len(p.W)))
			a.v = append(a.v, make([]float64, len(p.W)))
		}
	}
	a.t++
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	inv := 1 / scale
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.G[j] * inv
			m[j] = b1*m[j] + (1-b1)*g
			v[j] = b2*v[j] + (1-b2)*g*g
			p.W[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
}

// TestAdamMatchesOracle pins Adam.Step, on every implementation, to the
// reference step: lengths that reach every tail of the assembly,
// gradients with ±0, denormals, ±Inf and NaN among them (by trial), and
// several steps in a row, so the moments and the bias corrections carry
// over.
func TestAdamMatchesOracle(t *testing.T) {
	eachKernelImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(53))
		for trial := 0; trial < 60; trial++ {
			n := rng.Intn(70)
			p := &Param{W: make([]float64, n), G: make([]float64, n)}
			q := &Param{W: make([]float64, n), G: make([]float64, n)}
			kernelValues(rng, trial, p.W)
			copy(q.W, p.W)
			a, o := &Adam{}, &oracleAdam{}
			for step := 0; step < 4; step++ {
				kernelValues(rng, trial, p.G)
				if trial%3 == 0 {
					for j := range p.G {
						p.G[j] *= 1e-3 // small gradients: v's term rounds on its own
					}
				}
				copy(q.G, p.G)
				a.Step([]*Param{p}, float64(1+step))
				o.step([]*Param{q}, float64(1+step))
				what := fmt.Sprintf("%s adam n=%d step %d", impl, n, step)
				sameFloats(t, what+" w", p.W, q.W)
				sameFloats(t, what+" m", a.m[0], o.m[0])
				sameFloats(t, what+" v", a.v[0], o.v[0])
			}
		}
	})
}
