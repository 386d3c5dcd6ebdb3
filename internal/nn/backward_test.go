package nn

import (
	"math/rand"
	"testing"
)

// FuzzBackwardKernels is the differential fuzzer of the backward pass: on
// a conv/conv/dense/dense network (fuzzNet) whose shape, weights, input
// and logit gradient all come from the fuzz input, the workspace must
// agree with the test oracle bit for bit on every kernel implementation
// the platform has. Without weight-gradient accumulation, InputGrad on
// the grad plan of each suffix of the layer stack, fed the oracle's
// activation at the suffix's first boundary, must return the oracle's
// gradient at that boundary and leave every Param.G zero. With it, the
// backward pass of a train plan seeded with the same logit gradient must
// accumulate every parameter gradient the oracle does. The seeds below
// run in every `go test`.
func FuzzBackwardKernels(f *testing.F) {
	ordinary := []byte("\x20\x31\xf0\x47\x71\xe3\x9c\x18\x5a\xd2\x33")
	f.Add(uint8(23), uint8(46), uint8(46), uint8(64), uint8(1), ordinary, ordinary)                                   // the paper's first block: conv2's dx tiles of 8
	f.Add(uint8(10), uint8(13), uint8(9), uint8(13), uint8(0), ordinary, []byte{40, 41, 0, 250, 43, 1, 15})           // valid/valid, interior 4: tiles of 4, a left-over channel; ±0 seeds
	f.Add(uint8(12), uint8(5), uint8(7), uint8(9), uint8(3), []byte{0, 1, 2, 3, 200, 17, 90, 4, 5}, ordinary)         // same/same, odd channels; zero taps, denormals
	f.Add(uint8(4), uint8(2), uint8(2), uint8(8), uint8(3), []byte{30, 31, 32}, []byte{1, 0, 33})                     // an interior shorter than 4: the oracle's loops
	f.Add(uint8(40), uint8(8), uint8(6), uint8(16), uint8(4), []byte{9, 100, 101, 12, 77}, []byte{9, 10, 11, 13, 14}) // k=5 first layer; overflow, Inf-Inf
	f.Add(uint8(21), uint8(4), uint8(6), uint8(7), uint8(10), ordinary, []byte{1, 129, 16, 240, 0, 6, 13, 99})        // k=1 first layer, an overlapping last tile; NaN
	f.Add(uint8(23), uint8(6), uint8(5), uint8(8), uint8(17), []byte{1, 1, 1, 1, 1}, []byte{32, 1})                   // a pool; every weight -0: -0 activations, all tied, a -0 seed
	f.Add(uint8(23), uint8(5), uint8(4), uint8(9), uint8(16), ordinary, []byte{32, 32, 15, 32, 240, 240})             // pool1's odd row of 21; NaN activations
	f.Add(uint8(23), uint8(5), uint8(4), uint8(9), uint8(16), ordinary, []byte{32})                                   // a constant input: every interior pool pair ties
	f.Fuzz(func(t *testing.T, length, c1, c2, hidden, flags uint8, weights, inputs []byte) {
		l := int(length) % 41
		ch1, ch2, hid := int(c1)%97, int(c2)%97, int(hidden)%65
		k1 := [...]int{3, 5, 1, 3}[flags>>2&3]
		same1, same2, pool := flags&1 != 0, flags&2 != 0, flags&16 != 0
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
		net := fuzzNet(l, ch1, ch2, hid, k1, l3, same1, same2, pool)
		if len(weights) > 0 {
			next := 0
			for _, p := range net.Params() {
				for i := 0; i < len(p.W); i += 1 + len(weights)%5 {
					p.W[i] = fuzzValue(weights[next%len(weights)])
					next++
				}
			}
		}
		x := make([]float64, l)
		dlog := []float64{0.25, -0.75}
		if len(inputs) > 0 {
			for i := range x {
				x[i] = fuzzValue(inputs[i%len(inputs)])
			}
			for i := range dlog {
				dlog[i] = fuzzValue(inputs[(l+i)%len(inputs)])
			}
		}

		layers := net.Layers()
		o := newOracle(net)
		net.ZeroGrad()
		acts, want := oracleBoundaries(o, x, dlog)
		var wantG [][]float64
		for _, p := range net.Params() {
			wantG = append(wantG, append([]float64(nil), p.G...))
		}

		shapes := net.shapes()
		eachKernelImpl(t, func(impl string) {
			what := impl + " accum=false"
			view := net.CloneShared()
			for li := len(layers) - 1; li >= 0; li-- {
				ws := NewWorkspace(NewNetwork(shapes[li], 2, view.Layers()[li:]...))
				ws.Logits(acts[li])
				sameFloats(t, what+" dx of "+layers[li].Name(), ws.InputGrad(dlog), want[li])
			}
			for _, p := range view.Params() {
				sameFloats(t, what+" "+p.Name, p.G, make([]float64, len(p.G)))
			}

			what = impl + " accum=true"
			view = net.CloneShared()
			ws := NewWorkspace(view)
			bp := ws.plan(1, planTrain)
			bp.load(0, x)
			ws.forwardRows(bp, 1)
			copy(bp.gin, dlog)
			ws.backwardRows(bp, 1)
			for pi, p := range view.Params() {
				sameFloats(t, what+" "+p.Name, p.G, wantG[pi])
			}
		})
	})
}

// oracleBoundaries runs x forward through the test oracle in eval mode
// and dLogits back, one layer at a time, and returns copies of the
// activation and of the gradient at every layer boundary; the oracle's
// Param.G accumulate the parameter gradients.
func oracleBoundaries(o *oracle, x, dLogits []float64) (acts, grads [][]float64) {
	n := len(o.layers)
	acts, grads = make([][]float64, n+1), make([][]float64, n+1)
	t := &tensor{shape: append([]int(nil), o.net.inShape...), data: append([]float64(nil), x...)}
	acts[0] = append([]float64(nil), x...)
	for li, l := range o.layers {
		t = l.forward(t, false)
		acts[li+1] = append([]float64(nil), t.data...)
	}
	g := &tensor{shape: []int{len(dLogits)}, data: append([]float64(nil), dLogits...)}
	grads[n] = append([]float64(nil), dLogits...)
	for li := n - 1; li >= 0; li-- {
		g = o.layers[li].backward(g)
		grads[li] = append([]float64(nil), g.data...)
	}
	return acts, grads
}

// BenchmarkBackward is the gradient path of the paper network per input
// row, on every kernel implementation: LossGrad (one forward and one
// input-gradient pass, what PGD/MIM/FGSM and each margin attack iteration
// pay), TrainStep (a train-mode forward and a backward that accumulates
// weight gradients) and Jacobian (one forward and one backward per class,
// JSMA's iteration). Like BenchmarkForward it cycles through 64 distinct
// rows.
func BenchmarkBackward(b *testing.B) {
	net := PaperCNN(31)
	xs := scaledInputs(rand.New(rand.NewSource(8)), 64, net.InputDim())
	eachKernelImpl(b, func(impl string) {
		ws := net.CloneShared().WS()
		for _, bc := range []struct {
			name string
			f    func(x []float64)
		}{
			{"lossgrad", func(x []float64) { ws.LossGrad(x, 1) }},
			{"trainstep", func(x []float64) { ws.TrainStep(x, 1, 1) }},
			{"jacobian", func(x []float64) { ws.Jacobian(x) }},
		} {
			b.Run(impl+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.f(xs[i%64])
				}
			})
		}
	})
}
