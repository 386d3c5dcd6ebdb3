package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func init() {
	eachKernelImpl = func(t testing.TB, f func(impl string)) {
		if useAVX {
			f("avx")
			portableKernels(t)
		}
		f("portable")
	}
}

// portableKernels turns the assembly off for the rest of the test.
func portableKernels(t testing.TB) {
	saved := useAVX
	useAVX = false
	t.Cleanup(func() { useAVX = saved })
}

// TestBitIdentityPortable runs the bit-identity suite a second time on the
// portable kernels, which on this platform no other test would reach.
func TestBitIdentityPortable(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: every test already ran on the portable kernels")
	}
	portableKernels(t)
	t.Run("Workspace", TestWorkspaceBitIdentical)
	t.Run("WorkspaceZeroTap", TestWorkspaceZeroTapFallback)
	t.Run("Batch", TestBatchForwardBitIdentical)
	t.Run("BatchZeroTaps", TestBatchForwardZeroTaps)
	t.Run("TrainerParity", TestTrainerWorkspaceParity)
	t.Run("TrainRows", TestTrainRowsBitIdentical)
	t.Run("ActivationKernels", TestActivationKernelsMatchOracle)
}

// guarded returns a slice of n values at an odd offset inside a larger
// buffer whose every other element is the sentinel, and a check that the
// sentinels are still there.
func guarded(t *testing.T, rng *rand.Rand, n int, sentinel float64) (s []float64, check func(what string)) {
	lead := 1 + 2*rng.Intn(4)
	buf := make([]float64, lead+n+9)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[lead : lead+n : lead+n], func(what string) {
		t.Helper()
		for i, v := range buf {
			if (i < lead || i >= lead+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("%s: guard element %d overwritten with %v", what, i-lead, v)
			}
		}
	}
}

// activationValues is kernelValues with ties: about one element in six
// repeats its predecessor, so pool pairs tie.
func activationValues(rng *rand.Rand, trial int, s []float64) {
	kernelValues(rng, trial, s)
	for i := 1; i < len(s); i++ {
		if rng.Intn(6) == 0 {
			s[i] = s[i-1]
		}
	}
}

// TestKernelsAVXMatchPortable is the differential property test of the two
// implementations, through the drivers every forward pass uses: Conv1D,
// Dense, ReLU and MaxPool1D. Inputs
// and outputs are sub-slices at odd offsets. The input's surroundings are
// NaN, so a read outside it would poison an output the portable twin
// leaves finite; the output's surroundings must come back untouched.
func TestKernelsAVXMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewSource(20))
	defer func(saved bool) { useAVX = saved }(useAVX)

	for trial := 0; trial < 300; trial++ {
		cin, cout := 1+rng.Intn(96), 1+rng.Intn(12)
		l, same := 2+rng.Intn(39), rng.Intn(2) == 0
		k := 3
		if trial%10 == 9 {
			k = 1 + 2*rng.Intn(3)
		}
		c := NewConv1D("conv", cin, cout, k, same, rng)
		lout := c.OutLen(l)
		if lout < 1 {
			continue
		}
		x, _ := guarded(t, rng, cin*l, math.NaN())
		kernelValues(rng, trial, c.w.W)
		kernelValues(rng, trial, c.b.W)
		kernelValues(rng, trial, x)
		what := fmt.Sprintf("conv cin=%d cout=%d k=%d l=%d same=%v", cin, cout, k, l, same)
		var got [2][]float64
		for i, on := range []bool{true, false} {
			useAVX = on
			y, check := guarded(t, rng, cout*lout, 12345.5)
			c.fwdRow(x, y, l, lout)
			check(what)
			got[i] = y
		}
		sameFloats(t, what, got[0], got[1])
	}

	for trial := 0; trial < 300; trial++ {
		in, out, rows := 1+rng.Intn(400), 1+rng.Intn(40), 1+rng.Intn(10)
		if trial%4 < 2 {
			in = 4 * (1 + rng.Intn(100))
		}
		d := NewDense("fc", in, out, rng)
		kernelValues(rng, trial, d.w.W)
		kernelValues(rng, trial, d.b.W)
		// Rows sit at strides wider than the layer, as in the batch arenas.
		inSize, outSize := in+rng.Intn(3), out+rng.Intn(3)
		x, _ := guarded(t, rng, rows*inSize, math.NaN())
		kernelValues(rng, trial, x)
		// An infer plan runs the rows past the last group of four on the
		// pack, a train plan pads them to one more group, whose rows past
		// rows it may write.
		kind, n := planInfer, rows
		if trial%2 == 1 {
			kind, n = planTrain, (rows+3)&^3
		}
		bp := &batchPlan{kind: kind, xt: make([]float64, n*in), offs: make([]int, in), gs: make([]float64, in)}
		what := fmt.Sprintf("dense in=%d out=%d rows=%d kind=%d", in, out, rows, kind)
		var got [2][]float64
		for i, on := range []bool{true, false} {
			useAVX = on
			y, check := guarded(t, rng, n*outSize, 12345.5)
			for j := range y {
				y[j] = 12345.5 // the gaps between rows are guards too
			}
			d.fwdRows(bp, x, y, rows, inSize, outSize)
			check(what)
			for r := 0; r < n; r++ {
				for j := out; j < outSize; j++ {
					if y[r*outSize+j] != 12345.5 {
						t.Fatalf("%s: gap after row %d overwritten", what, r)
					}
				}
			}
			got[i] = y
		}
		sameFloats(t, what, got[0], got[1])
	}

	// ReLU and MaxPool1D through the calls every plan makes, on
	// rows of every length, most of them not a multiple of 4.
	for trial := 0; trial < 300; trial++ {
		rows, l, size := 1+rng.Intn(4), rng.Intn(43), 2
		if trial%10 == 9 {
			size = 3
		}
		lout := l / size
		x, _ := guarded(t, rng, rows*l, math.NaN())
		activationValues(rng, trial, x)
		what := fmt.Sprintf("relu/pool rows=%d l=%d size=%d", rows, l, size)
		m := NewMaxPool1D("pool", size)
		var got [2][]float64
		for i, on := range []bool{true, false} {
			useAVX = on
			y, check := guarded(t, rng, rows*l, 12345.5)
			p, pcheck := guarded(t, rng, rows*lout, 12345.5)
			relu(y, x)
			m.fwdRows(x, p, rows, l, lout)
			check(what + " relu")
			pcheck(what + " pool")
			got[i] = append(append([]float64(nil), y...), p...)
		}
		sameFloats(t, what, got[0], got[1])
	}
}

// TestBackwardKernelsAVXMatchPortable is TestKernelsAVXMatchPortable for
// the backward pass, through its drivers: Conv1D and Dense with and
// without weight gradients, ReLU and MaxPool1D. The layer input and the output gradient sit in NaN, the
// input gradient and both parameter gradients in a sentinel that must
// come back untouched.
func TestBackwardKernelsAVXMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	rng := rand.New(rand.NewSource(33))
	defer func(saved bool) { useAVX = saved }(useAVX)

	// run calls bwd once per implementation on fresh guarded copies of the
	// starting gradients and compares what each wrote.
	run := func(what string, dxLen int, grads [][]float64, bwd func(dx []float64, grads [][]float64)) {
		t.Helper()
		var got [2][][]float64
		for i, on := range []bool{true, false} {
			useAVX = on
			dx, check := guarded(t, rng, dxLen, 12345.5)
			outs, checks := [][]float64{dx}, []func(string){check}
			var gs [][]float64
			for _, g0 := range grads {
				g, check := guarded(t, rng, len(g0), 12345.5)
				copy(g, g0)
				gs = append(gs, g)
				outs, checks = append(outs, g), append(checks, check)
			}
			bwd(dx, gs)
			for _, check := range checks {
				check(what)
			}
			got[i] = outs
		}
		for j := range got[0] {
			sameFloats(t, fmt.Sprintf("%s output %d", what, j), got[0][j], got[1][j])
		}
	}

	for trial := 0; trial < 300; trial++ {
		cin, cout := 1+rng.Intn(96), 1+rng.Intn(12)
		l, same := 2+rng.Intn(39), rng.Intn(2) == 0
		k := 3
		if trial%10 == 9 {
			k = 1 + 2*rng.Intn(3)
		}
		c := NewConv1D("conv", cin, cout, k, same, rng)
		lout := c.OutLen(l)
		if lout < 1 {
			continue
		}
		x, _ := guarded(t, rng, cin*l, math.NaN())
		g, _ := guarded(t, rng, cout*lout, math.NaN())
		kernelValues(rng, trial, c.w.W)
		kernelValues(rng, trial, x)
		kernelValues(rng, trial, g)
		gw, gb := make([]float64, len(c.w.G)), make([]float64, len(c.b.G))
		kernelValues(rng, trial, gw)
		kernelValues(rng, trial, gb)
		s := &wsState{}
		if k == 3 {
			s.dwCols, s.dwMask = make([]float64, lout*cin*3), c.dwMask()
		}
		for _, accum := range []bool{false, true} {
			what := fmt.Sprintf("conv cin=%d cout=%d k=%d l=%d same=%v accum=%v", cin, cout, k, l, same, accum)
			run(what, cin*l, [][]float64{gw, gb}, func(dx []float64, grads [][]float64) {
				c.w.G, c.b.G = grads[0], grads[1]
				c.bwdRow(s, x, g, dx, l, lout, accum)
			})
		}
	}

	for trial := 0; trial < 300; trial++ {
		in, out := 1+rng.Intn(400), 1+rng.Intn(40)
		if trial%4 < 2 {
			in = 4 * (1 + rng.Intn(100))
		}
		d := NewDense("fc", in, out, rng)
		x, _ := guarded(t, rng, in, math.NaN())
		g, _ := guarded(t, rng, out, math.NaN())
		kernelValues(rng, trial, d.w.W)
		kernelValues(rng, trial, x)
		kernelValues(rng, trial, g)
		for o := range g {
			if rng.Intn(3) == 0 {
				g[o] = 0 // a ReLU-masked output: the row is skipped
			}
		}
		gw, gb := make([]float64, len(d.w.G)), make([]float64, len(d.b.G))
		kernelValues(rng, trial, gw)
		kernelValues(rng, trial, gb)
		offs, gs := make([]int, 1), make([]float64, 1)
		for _, accum := range []bool{false, true} {
			what := fmt.Sprintf("dense in=%d out=%d accum=%v", in, out, accum)
			run(what, in, [][]float64{gw, gb}, func(dx []float64, grads [][]float64) {
				d.w.G, d.b.G = grads[0], grads[1]
				d.bwdRows(x, g, dx, 1, offs, gs, accum)
			})
		}
	}

	// Dense's batch pass, dense8x4's backward partner: the weight and the
	// input gradient of a sub-batch on axpyList, with and without dx, rows
	// whose g[o] is zero skipped.
	for trial := 0; trial < 200; trial++ {
		in, out, rows := 1+rng.Intn(400), 1+rng.Intn(150), 1+rng.Intn(trainSub)
		if trial%4 < 2 {
			in = 4 * (1 + rng.Intn(100))
		}
		d := NewDense("fc", in, out, rng)
		x, _ := guarded(t, rng, rows*in, math.NaN())
		g, _ := guarded(t, rng, rows*out, math.NaN())
		kernelValues(rng, trial, d.w.W)
		kernelValues(rng, trial, x)
		kernelValues(rng, trial, g)
		for o := range g {
			if rng.Intn(3) == 0 {
				g[o] = 0
			}
		}
		gw, gb := make([]float64, len(d.w.G)), make([]float64, len(d.b.G))
		kernelValues(rng, trial, gw)
		kernelValues(rng, trial, gb)
		offs, gs := make([]int, rows), make([]float64, rows)
		for _, withDx := range []bool{false, true} {
			what := fmt.Sprintf("dense rows in=%d out=%d rows=%d dx=%v", in, out, rows, withDx)
			run(what, rows*in, [][]float64{gw, gb}, func(dx []float64, grads [][]float64) {
				d.w.G, d.b.G = grads[0], grads[1]
				if !withDx {
					dx = nil
				}
				d.bwdRows(x, g, dx, rows, offs, gs, true)
			})
		}
	}

	// ReLU and MaxPool1D, which re-derive their masks from the layer
	// input: ties and special values in x, -0 and NaN among the gradients.
	for trial := 0; trial < 300; trial++ {
		rows, l, size := 1+rng.Intn(4), rng.Intn(43), 2
		if trial%10 == 9 {
			size = 3
		}
		lout := l / size
		x, _ := guarded(t, rng, rows*l, math.NaN())
		g, _ := guarded(t, rng, rows*l, math.NaN())
		gp, _ := guarded(t, rng, rows*lout, math.NaN())
		activationValues(rng, trial, x)
		kernelValues(rng, trial+1, g)
		kernelValues(rng, trial+1, gp)
		m := NewMaxPool1D("pool", size)
		what := fmt.Sprintf("relu rows=%d l=%d", rows, l)
		run(what, rows*l, nil, func(dx []float64, _ [][]float64) { reluBwd(dx, g, x) })
		what = fmt.Sprintf("pool rows=%d l=%d size=%d", rows, l, size)
		run(what, rows*l, nil, func(dx []float64, _ [][]float64) { m.bwdRows(x, gp, dx, rows, l, lout) })
	}
}
