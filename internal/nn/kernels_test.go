package nn

import (
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

// FuzzForwardKernels is the differential fuzzer of the forward pass: on a
// conv/conv/dense/dense network whose shape, weights and inputs all come
// from the fuzz input, the per-row workspace path must agree with the
// test oracle bit for bit at every layer boundary, and the batch
// path on the result, on every kernel implementation the platform has.
// The seeds below run in every `go test`.
func FuzzForwardKernels(f *testing.F) {
	ordinary := []byte("\x20\x31\xf0\x47\x71\xe3\x9c\x18\x5a\xd2\x33")
	f.Add(uint8(23), uint8(46), uint8(46), uint8(64), uint8(1), ordinary, ordinary)                            // the paper's first block
	f.Add(uint8(23), uint8(5), uint8(7), uint8(13), uint8(1), []byte{0, 1, 2, 3, 200, 17, 90, 4, 5}, ordinary) // odd channels; zero taps, denormals
	f.Add(uint8(10), uint8(2), uint8(4), uint8(8), uint8(2), ordinary, []byte{40, 41, 42, 250, 43, 44, 15})    // exactly one tile, dense8; a NaN input
	f.Add(uint8(9), uint8(2), uint8(2), uint8(8), uint8(3), []byte{30, 31, 32}, []byte{1, 0, 33})              // a row shorter than a tile
	f.Add(uint8(40), uint8(8), uint8(3), uint8(16), uint8(4), []byte{9, 100, 101, 12, 77}, []byte{9, 10, 11})  // k=5 first layer; overflow, Inf-Inf
	f.Add(uint8(21), uint8(4), uint8(6), uint8(9), uint8(3), ordinary, []byte{1, 129, 16, 240, 0, 6, 13, 99})  // an overlapping last tile; one Inf
	f.Fuzz(func(t *testing.T, length, c1, c2, hidden, flags uint8, weights, inputs []byte) {
		l := int(length) % 41
		ch1, ch2, hid := int(c1)%97, int(c2)%97, int(hidden)%65
		k1 := 3
		if flags&4 != 0 {
			k1 = 5
		}
		same1, same2 := flags&1 != 0, flags&2 != 0
		l2 := l
		if !same1 {
			l2 -= k1 - 1
		}
		l3 := l2
		if !same2 {
			l3 -= 2
		}
		if l3 < 1 || ch1 == 0 || ch2 == 0 || hid == 0 {
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
			for r, x := range xs {
				ws.Logits(x)
				act := &tensor{shape: []int{1, l}, data: x}
				for li, layer := range net.Layers() {
					act = o.layers[li].forward(act, false)
					sameFloats(t, impl+" per-row "+layer.Name(), ws.acts[li+1], act.data)
				}
				sameFloats(t, impl+" batch probs", batch[r], o.Probs(x))
			}
		})
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
// workspace entry points on every kernel implementation.
func BenchmarkForward(b *testing.B) {
	net := PaperCNN(31)
	rng := rand.New(rand.NewSource(8))
	xs := scaledInputs(rng, 64, net.InputDim())
	perRow := func(b *testing.B, rows int, f func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	var dst [][]float64
	o := newOracle(net)
	b.Run("oracle", func(b *testing.B) { perRow(b, 1, func() { o.Probs(xs[0]) }) })
	eachKernelImpl(b, func(impl string) {
		ws := net.CloneShared().WS()
		b.Run(impl+"/Probs", func(b *testing.B) { perRow(b, 1, func() { ws.Probs(xs[0]) }) })
		b.Run(impl+"/ProbsBatch1", func(b *testing.B) { perRow(b, 1, func() { dst = ws.ProbsBatch(xs[:1], dst) }) })
		b.Run(impl+"/ProbsBatch64", func(b *testing.B) { perRow(b, 64, func() { dst = ws.ProbsBatch(xs, dst) }) })
	})
}
