package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// eachKernelImpl runs f once per implementation of the forward primitives
// this platform has. Portable Go is the only one everywhere but amd64,
// whose test file replaces this with a version that also runs f on AVX.
var eachKernelImpl = func(_ testing.TB, f func(impl string)) { f("portable") }

// sameFloat is bit equality, except that any NaN equals any NaN: which
// operand's payload a NaN result carries depends on operand order, and the
// compiler is free to commute a multiply or an add.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameFloats(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// fuzzValue maps one byte to one float64. The low bytes are the special
// cases a kernel can get wrong — the first nine stay finite under a few
// multiply-adds (signed zeros, denormals, values that round), the next
// seven overflow or are not finite to begin with — and the rest are small
// multiples of 1/16, whose sums are exact, so a wrong order shows.
func fuzzValue(b byte) float64 {
	specials := [...]float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 1e-310, 1 + 0x1p-52, 1.0 / 3, -1e-155,
		1e155, math.MaxFloat64, -math.MaxFloat64, -1e308, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	if int(b) < len(specials) {
		return specials[b]
	}
	return float64(int8(b)) / 16
}

// kernelValues fills s with ordinary values and, by trial, a sprinkling
// of fuzzValue's special cases: none, the ones that stay finite, or all.
func kernelValues(rng *rand.Rand, trial int, s []float64) {
	specials := []int{0, 9, 16}[trial%3]
	for i := range s {
		s[i] = rng.NormFloat64()
		if specials > 0 && rng.Intn(16) == 0 {
			s[i] = fuzzValue(byte(rng.Intn(specials)))
		}
	}
}

// fuzzNet is the fuzzers' network: conv1, an optional size-2 max-pool that
// sees conv1's raw outputs (negatives, -0 and NaN included), ReLU, conv2,
// and two dense layers with a ReLU between them.
func fuzzNet(l, ch1, ch2, hid, k1, l3 int, same1, same2, pool bool) *Network {
	wrng := rand.New(rand.NewSource(1))
	layers := []Layer{NewConv1D("conv1", 1, ch1, k1, same1, wrng)}
	if pool {
		layers = append(layers, NewMaxPool1D("pool1", 2))
	}
	layers = append(layers,
		NewReLU("relu1"),
		NewConv1D("conv2", ch1, ch2, 3, same2, wrng),
		NewFlatten("flatten"),
		NewDense("fc1", ch2*l3, hid, wrng),
		NewReLU("relu2"),
		NewDense("logits", hid, 2, wrng),
	)
	return NewNetwork([]int{1, l}, 2, layers...)
}

// FuzzForwardKernels is the differential fuzzer of the forward pass: on a
// conv/conv/dense/dense network (fuzzNet) whose shape, weights and inputs
// all come from the fuzz input, the workspace must agree with the test
// oracle bit for bit, on every kernel implementation the platform has: at
// every layer boundary on the grad plan (one row, as Logits runs it) and
// on a train plan of three rows (fuzzNet has no dropout, so its forward
// pass is the eval one), and in the probabilities of the infer plan
// (ProbsBatch) on the same three rows. The one-row passes run fc1 on its
// pack, which skips zero inputs, so three flags aim at that rule: 8 makes
// every dense bias −0, 32 makes conv2's weights −0 and its biases +0 and
// −0 in turn, so that fc1's inputs are all zero, −0 among them, and 64
// makes fc1's first three weights +Inf, −Inf and NaN. The seeds below run
// in every `go test`.
func FuzzForwardKernels(f *testing.F) {
	ordinary := []byte("\x20\x31\xf0\x47\x71\xe3\x9c\x18\x5a\xd2\x33")
	f.Add(uint8(23), uint8(46), uint8(46), uint8(64), uint8(1), ordinary, ordinary)                            // the paper's first block
	f.Add(uint8(23), uint8(5), uint8(7), uint8(13), uint8(1), []byte{0, 1, 2, 3, 200, 17, 90, 4, 5}, ordinary) // odd channels; zero taps, denormals
	f.Add(uint8(10), uint8(2), uint8(4), uint8(8), uint8(2), ordinary, []byte{40, 41, 42, 250, 43, 44, 15})    // exactly one tile; a NaN input
	f.Add(uint8(9), uint8(2), uint8(2), uint8(8), uint8(3), []byte{30, 31, 32}, []byte{1, 0, 33})              // a row shorter than a tile
	f.Add(uint8(40), uint8(8), uint8(3), uint8(16), uint8(4), []byte{9, 100, 101, 12, 77}, []byte{9, 10, 11})  // k=5 first layer; overflow, Inf-Inf
	f.Add(uint8(21), uint8(4), uint8(6), uint8(9), uint8(3), ordinary, []byte{1, 129, 16, 240, 0, 6, 13, 99})  // an overlapping last tile; one Inf
	f.Add(uint8(23), uint8(6), uint8(5), uint8(8), uint8(17), []byte{1, 1, 1, 1, 1}, []byte{32})               // a pool; every weight -0: -0 activations, all tied
	f.Add(uint8(23), uint8(5), uint8(4), uint8(9), uint8(16), ordinary, []byte{32, 32, 15, 32, 240, 240})      // pool1's odd row of 21; NaN activations
	f.Add(uint8(23), uint8(5), uint8(4), uint8(9), uint8(16), ordinary, []byte{32})                            // a constant input: every interior pool pair ties
	f.Add(uint8(23), uint8(6), uint8(5), uint8(16), uint8(9), ordinary, ordinary)                              // −0 dense biases: the pack lists every input
	f.Add(uint8(23), uint8(6), uint8(5), uint8(16), uint8(33), ordinary, ordinary)                             // fc1's inputs ±0: the pack skips them all
	f.Add(uint8(23), uint8(6), uint8(5), uint8(16), uint8(41), ordinary, ordinary)                             // fc1's inputs ±0 and −0 biases
	f.Add(uint8(23), uint8(6), uint8(5), uint8(16), uint8(97), ordinary, ordinary)                             // ±Inf and NaN fc1 weights times zero inputs
	f.Add(uint8(23), uint8(6), uint8(5), uint8(16), uint8(65), ordinary, []byte{32, 0, 1, 40})                 // ±Inf and NaN fc1 weights, ±0 network inputs
	f.Fuzz(func(t *testing.T, length, c1, c2, hidden, flags uint8, weights, inputs []byte) {
		l := int(length) % 41
		ch1, ch2, hid := int(c1)%97, int(c2)%97, int(hidden)%65
		k1 := 3
		if flags&4 != 0 {
			k1 = 5
		}
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
		// The weight bytes overwrite a stride of the He-initialised
		// weights, so special values land among ordinary ones.
		if len(weights) > 0 {
			next := 0
			for _, p := range net.Params() {
				for i := 0; i < len(p.W); i += 1 + len(weights)%5 {
					p.W[i] = fuzzValue(weights[next%len(weights)])
					next++
				}
			}
		}
		negZero := math.Copysign(0, -1)
		for _, layer := range net.Layers() {
			switch l := layer.(type) {
			case *Dense:
				if flags&8 != 0 {
					for o := range l.b.W {
						l.b.W[o] = negZero
					}
				}
				if flags&64 != 0 && l.name == "fc1" {
					copy(l.w.W, []float64{math.Inf(1), math.Inf(-1), math.NaN()})
				}
			case *Conv1D:
				if flags&32 != 0 && l.name == "conv2" {
					for i := range l.w.W {
						l.w.W[i] = negZero
					}
					for o := range l.b.W {
						l.b.W[o] = [2]float64{0, negZero}[o%2]
					}
				}
			}
		}
		xs := make([][]float64, 3)
		for r := range xs {
			xs[r] = make([]float64, l)
			for i := range xs[r] {
				xs[r][i] = 0.5
				if len(inputs) > 0 {
					xs[r][i] = fuzzValue(inputs[(r*l+i)%len(inputs)])
				}
			}
		}
		o := newOracle(net)
		eachKernelImpl(t, func(impl string) {
			ws := NewWorkspace(net.CloneShared())
			batch := ws.ProbsBatch(xs, nil)
			tp := ws.plan(len(xs), planTrain)
			for r, x := range xs {
				tp.load(r, x)
			}
			ws.forwardRows(tp, len(xs))
			gp := ws.plans[planGrad]
			for r, x := range xs {
				ws.Logits(x)
				act := &tensor{shape: []int{1, l}, data: x}
				for li, layer := range net.Layers() {
					act = o.layers[li].forward(act, false)
					size := tp.sizes[li+1]
					sameFloats(t, impl+" grad plan "+layer.Name(), gp.acts[li+1], act.data)
					sameFloats(t, impl+" train plan "+layer.Name(), tp.acts[li+1][r*size:(r+1)*size], act.data)
				}
				sameFloats(t, impl+" batch probs", batch[r], o.Probs(x))
			}
		})
	})
}

// TestActivationKernelsMatchOracle pins ReLU and MaxPool1D, in both
// directions, to the test oracle on the values a select can get wrong:
// NaN on either side of a pool pair, ±0 pairs, ties, ±Inf, denormals, and
// -0 and NaN gradients through both backward passes. Rows run at every
// length up to 55, which reaches every tail width of the assembly; a pool
// row of odd length (pool1's is 21) ends in +Inf, which no window may
// read, and a size-3 pool takes the oracle-loop path.
func TestActivationKernelsMatchOracle(t *testing.T) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	pairs := [][2]float64{
		{nan, 1}, {1, nan}, {nan, -1}, {-1, nan}, {nan, nan},
		{0, negZero}, {negZero, 0}, {negZero, negZero}, {0, 0},
		{1.5, 1.5}, {-2, -2}, {inf, -inf}, {-inf, inf}, {inf, inf}, {-inf, -inf},
		{tiny, -tiny}, {-tiny, tiny}, {tiny, 0}, {negZero, tiny}, {0x1p-1022, 1e-310},
		{1, 2}, {2, 1}, {-1, -2}, {-2, -1}, {nan, inf}, {-inf, nan},
	}
	var vals []float64
	for _, p := range pairs {
		vals = append(vals, p[0], p[1])
	}
	grads := []float64{negZero, 0.75, nan, -inf, 0, -3, tiny, negZero, inf}
	fill := func(n, from int, src []float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = src[(from+i)%len(src)]
		}
		return s
	}
	sentinel := func(n int) []float64 { return fill(n, 0, []float64{12345.5}) }

	eachKernelImpl(t, func(impl string) {
		for n := 0; n <= len(vals)+3; n++ {
			what := fmt.Sprintf("%s relu n=%d", impl, n)
			x, g := fill(n, n, vals), fill(n, n, grads)
			var o oracleReLU
			want := o.forward(&tensor{shape: []int{n}, data: x}, false).data
			wantDx := o.backward(&tensor{shape: []int{n}, data: g}).data
			y, dx := sentinel(n), sentinel(n)
			relu(y, x)
			reluBwd(dx, g, x)
			sameFloats(t, what+" forward", y, want)
			sameFloats(t, what+" backward", dx, wantDx)
		}
		for _, size := range []int{2, 3} {
			const rows = 3
			for l := 0; l <= len(vals)+3; l++ {
				what := fmt.Sprintf("%s pool size=%d l=%d", impl, size, l)
				lout := l / size
				x := fill(rows*l, 0, vals)
				for r := 1; l%size != 0 && r <= rows; r++ {
					x[r*l-1] = inf
				}
				g := fill(rows*lout, l, grads)
				o := oraclePool{size: size}
				want := o.forward(&tensor{shape: []int{rows, l}, data: x}, false).data
				wantDx := o.backward(&tensor{shape: []int{rows, lout}, data: g}).data
				y, dx := sentinel(rows*lout), sentinel(rows*l)
				m := NewMaxPool1D("pool", size)
				m.fwdRows(x, y, rows, l, lout)
				m.bwdRows(x, g, dx, rows, l, lout)
				sameFloats(t, what+" forward", y, want)
				sameFloats(t, what+" backward", dx, wantDx)
			}
		}
	})
}

// scaledInputs draws n random inputs spanning roughly the scaled-feature
// range the pipeline produces, with some mass outside [0, 1] as
// attack-perturbed vectors have.
func scaledInputs(rng *rand.Rand, n, dim int) [][]float64 {
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

// BenchmarkForward is the forward pass of the paper network per input row:
// the test oracle, which uses no float kernel, and the three
// workspace entry points on every kernel implementation. Every entry
// cycles through 64 distinct rows: fed one row again and again, the
// branch predictor learns its activations' sign pattern and the numbers
// stop saying what a stream of distinct requests costs.
func BenchmarkForward(b *testing.B) {
	net := PaperCNN(31)
	rng := rand.New(rand.NewSource(8))
	xs := scaledInputs(rng, 64, net.InputDim())
	perRow := func(b *testing.B, rows int, f func(i int)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f(i)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	var dst [][]float64
	o := newOracle(net)
	b.Run("oracle", func(b *testing.B) { perRow(b, 1, func(i int) { o.Probs(xs[i%64]) }) })
	eachKernelImpl(b, func(impl string) {
		ws := net.CloneShared().WS()
		b.Run(impl+"/Probs", func(b *testing.B) { perRow(b, 1, func(i int) { ws.Probs(xs[i%64]) }) })
		b.Run(impl+"/ProbsBatch1", func(b *testing.B) {
			perRow(b, 1, func(i int) { dst = ws.ProbsBatch(xs[i%64:i%64+1], dst) })
		})
		b.Run(impl+"/ProbsBatch64", func(b *testing.B) { perRow(b, 64, func(int) { dst = ws.ProbsBatch(xs, dst) }) })
	})
}

// BenchmarkLayers times every layer of the paper network on its own, per
// row, on the kernels the plans run: fwd is the layer's forward kernel,
// bwd its backward kernel with weight-gradient accumulation (a training
// step's; the grad plan skips that part). Dropout runs its train-mode
// kernels, as a train plan does; Flatten has no kernel. The layer inputs
// are the boundaries of a grad plan holding 64 rows, the output
// gradients the test oracle's loss gradients for the same rows, packed
// the same way, and iteration i runs the layer on row i%64, so the rows
// are distinct as in BenchmarkForward. A dense layer's fwd is the one-row
// pass on its pack, whose cost follows the share of the layer's inputs
// that are zero: fwd reports that share too. A dense layer also has fwd16
// and bwd16: the batch kernels a training sub-batch runs (Dense.fwdRows
// on dense8x4, and Dense.bwdRows on axpyList) over 16 of those rows, in
// ns per row.
func BenchmarkLayers(b *testing.B) {
	const rows, sub = 64, 16
	net := PaperCNN(31)
	xs := scaledInputs(rand.New(rand.NewSource(8)), rows, net.InputDim())
	shapes := net.shapes()
	o := newOracle(net.CloneShared())
	grads := make([][]float64, len(shapes))
	for r, x := range xs {
		_, dLogits := softmaxCE(o.Logits(x), r%2)
		_, g := oracleBoundaries(o, x, dLogits)
		for i := range grads {
			grads[i] = append(grads[i], g[i]...)
		}
	}
	eachKernelImpl(b, func(impl string) {
		ws := NewWorkspace(net.CloneShared())
		bp := ws.plan(rows, planGrad)
		for r, x := range xs {
			bp.load(r, x)
		}
		ws.forwardRows(bp, rows)
		offs, gs := make([]int, sub), make([]float64, sub)
		for li, layer := range ws.net.Layers() {
			inSize, outSize := bp.sizes[li], bp.sizes[li+1]
			cols, outCols := shapeCols(shapes[li]), shapeCols(shapes[li+1])
			y, dx, mask := make([]float64, sub*outSize), make([]float64, sub*inSize), make([]float64, outSize)
			var fwd, bwd func(x, g []float64)
			switch l := layer.(type) {
			case *Conv1D:
				fwd = func(x, _ []float64) { l.fwdRow(x, y, cols, outCols) }
				bwd = func(x, g []float64) { l.bwdRow(&ws.states[li], x, g, dx, cols, outCols, true) }
			case *Dense:
				fwd = func(x, _ []float64) { l.fwdRows(bp, x, y, 1, inSize, outSize) }
				bwd = func(x, g []float64) { l.bwdRows(x, g, dx, 1, offs, gs, true) }
			case *ReLU:
				fwd = func(x, _ []float64) { relu(y[:outSize], x) }
				bwd = func(x, g []float64) { reluBwd(dx[:inSize], g, x) }
			case *MaxPool1D:
				n := shapeRows(shapes[li])
				fwd = func(x, _ []float64) { l.fwdRows(x, y, n, cols, outCols) }
				bwd = func(x, g []float64) { l.bwdRows(x, g, dx, n, cols, outCols) }
			case *Dropout:
				fwd = func(x, _ []float64) { l.dropout(ws.states[li].rng, mask, x, y[:outSize]) }
				bwd = func(_, g []float64) { dropoutBwd(dx[:inSize], g, mask) }
			default:
				continue
			}
			row := func(i int) (x, g []float64) {
				r := i % rows
				return bp.acts[li][r*inSize : (r+1)*inSize], grads[li+1][r*outSize : (r+1)*outSize]
			}
			b.Run(impl+"/"+layer.Name()+"/fwd", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fwd(row(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
				if _, ok := layer.(*Dense); ok {
					zeros := 0
					for _, v := range bp.acts[li][:rows*inSize] {
						if v == 0 {
							zeros++
						}
					}
					b.ReportMetric(float64(zeros)/float64(rows*inSize), "zero-input-share")
				}
			})
			b.Run(impl+"/"+layer.Name()+"/bwd", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bwd(row(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
			})
			d, ok := layer.(*Dense)
			if !ok {
				continue
			}
			x, g := bp.acts[li][:sub*inSize], grads[li+1][:sub*outSize]
			b.Run(impl+"/"+layer.Name()+"/fwd16", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.fwdRows(bp, x, y, sub, inSize, outSize)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sub), "ns/row")
			})
			b.Run(impl+"/"+layer.Name()+"/bwd16", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.bwdRows(x, g, dx, sub, offs, gs, true)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sub), "ns/row")
			})
		}
	})
}
