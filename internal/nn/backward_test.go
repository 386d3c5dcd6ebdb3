package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzBackwardKernels is the differential fuzzer of the backward pass: on
// a conv/conv/dense/dense network whose shape, weights, input and logit
// gradient all come from the fuzz input, workspace backprop — with and
// without weight-gradient accumulation, on every kernel implementation
// the platform has — must agree with the test oracle bit for bit at
// every layer boundary and in every parameter gradient. The seeds below
// run in every `go test`.
func FuzzBackwardKernels(f *testing.F) {
	ordinary := []byte("\x20\x31\xf0\x47\x71\xe3\x9c\x18\x5a\xd2\x33")
	f.Add(uint8(23), uint8(46), uint8(46), uint8(64), uint8(1), ordinary, ordinary)                                   // the paper's first block: conv2's dx tiles of 8
	f.Add(uint8(10), uint8(13), uint8(9), uint8(13), uint8(0), ordinary, []byte{40, 41, 0, 250, 43, 1, 15})           // valid/valid, interior 4: tiles of 4, a left-over channel; ±0 seeds
	f.Add(uint8(12), uint8(5), uint8(7), uint8(9), uint8(3), []byte{0, 1, 2, 3, 200, 17, 90, 4, 5}, ordinary)         // same/same, odd channels; zero taps, denormals
	f.Add(uint8(4), uint8(2), uint8(2), uint8(8), uint8(3), []byte{30, 31, 32}, []byte{1, 0, 33})                     // an interior shorter than 4: the oracle's loops
	f.Add(uint8(40), uint8(8), uint8(6), uint8(16), uint8(4), []byte{9, 100, 101, 12, 77}, []byte{9, 10, 11, 13, 14}) // k=5 first layer; overflow, Inf-Inf
	f.Add(uint8(21), uint8(4), uint8(6), uint8(7), uint8(10), ordinary, []byte{1, 129, 16, 240, 0, 6, 13, 99})        // k=1 first layer, an overlapping last tile; NaN
	f.Fuzz(func(t *testing.T, length, c1, c2, hidden, flags uint8, weights, inputs []byte) {
		l := int(length) % 41
		ch1, ch2, hid := int(c1)%97, int(c2)%97, int(hidden)%65
		k1 := [...]int{3, 5, 1, 3}[flags>>2&3]
		same1, same2 := flags&1 != 0, flags&2 != 0
		l2 := l
		if !same1 {
			l2 -= k1 - 1
		}
		l3 := l2
		if !same2 {
			l3 -= 2
		}
		if l2 < 1 || l3 < 1 || ch1 == 0 || ch2 == 0 || hid == 0 {
			return
		}
		wrng := rand.New(rand.NewSource(1))
		net := NewNetwork([]int{1, l}, 2,
			NewConv1D("conv1", 1, ch1, k1, same1, wrng),
			NewReLU("relu1"),
			NewConv1D("conv2", ch1, ch2, 3, same2, wrng),
			NewFlatten("flatten"),
			NewDense("fc1", ch2*l3, hid, wrng),
			NewReLU("relu2"),
			NewDense("logits", hid, 2, wrng),
		)
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

		// The oracle, one layer at a time.
		layers := net.Layers()
		o := newOracle(net)
		o.Forward(x, false)
		net.ZeroGrad()
		want := make([][]float64, len(layers)+1)
		g := &tensor{shape: []int{2}, data: append([]float64(nil), dlog...)}
		want[len(layers)] = g.data
		for li := len(layers) - 1; li >= 0; li-- {
			g = o.layers[li].backward(g)
			want[li] = append([]float64(nil), g.data...)
		}
		var wantG [][]float64
		for _, p := range net.Params() {
			wantG = append(wantG, append([]float64(nil), p.G...))
		}

		eachKernelImpl(t, func(impl string) {
			for _, accum := range []bool{false, true} {
				what := fmt.Sprintf("%s accum=%v", impl, accum)
				view := net.CloneShared()
				ws := NewWorkspace(view)
				ws.Forward(x, false)
				ws.backprop(dlog, accum)
				for li := len(layers) - 1; li >= 0; li-- {
					sameFloats(t, what+" dx of "+layers[li].Name(), ws.gbufs[li], want[li])
				}
				for pi, p := range view.Params() {
					wg := wantG[pi]
					if !accum {
						wg = make([]float64, len(p.G))
					}
					sameFloats(t, what+" "+p.Name, p.G, wg)
				}
			}
		})
	})
}

// BenchmarkBackward is the gradient path of the paper network per input
// row, on every kernel implementation: LossGrad (one forward and one
// input-gradient pass, what PGD/MIM/FGSM and each margin attack iteration
// pay), TrainStep (a train-mode forward and a backward that accumulates
// weight gradients) and Jacobian (one forward and one backward per class,
// JSMA's iteration).
func BenchmarkBackward(b *testing.B) {
	net := PaperCNN(31)
	x := randVec(rand.New(rand.NewSource(8)), net.InputDim())
	eachKernelImpl(b, func(impl string) {
		ws := net.CloneShared().WS()
		for _, bc := range []struct {
			name string
			f    func()
		}{
			{"lossgrad", func() { ws.LossGrad(x, 1) }},
			{"trainstep", func() { ws.TrainStep(x, 1, 1) }},
			{"jacobian", func() { ws.Jacobian(x) }},
		} {
			b.Run(impl+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.f()
				}
			})
		}
	})
}
