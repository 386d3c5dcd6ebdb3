package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// The allocating reference executor. Every bit-identity test in this
// package compares the workspace against it: it computes each layer in
// the plainest loop order the kernel contracts of kernels.go and
// kernels_bwd.go name, returns fresh slices from every call, and keeps
// its per-layer caches in its own structs, never in the network. It
// lives in the package's test files because it must see the layers'
// unexported fields, and a separate package importing nn could not be
// imported back by these tests.

// tensor is a dense row-major (rows, cols) or flat activation.
type tensor struct {
	shape []int
	data  []float64
}

func newTensor(shape ...int) *tensor {
	return &tensor{shape: append([]int(nil), shape...), data: make([]float64, shapeSize(shape))}
}

func (t *tensor) rows() int { return shapeRows(t.shape) }
func (t *tensor) cols() int { return shapeCols(t.shape) }

func (t *tensor) row(r int) []float64 {
	c := t.cols()
	return t.data[r*c : (r+1)*c]
}

func (t *tensor) clone() *tensor {
	return &tensor{shape: append([]int(nil), t.shape...), data: append([]float64(nil), t.data...)}
}

// oracleLayer is one layer of the reference: forward caches whatever
// backward needs; backward consumes the gradient w.r.t. the layer's
// output and returns the gradient w.r.t. its input, accumulating
// parameter gradients into the layer's Param.G.
type oracleLayer interface {
	forward(x *tensor, train bool) *tensor
	backward(grad *tensor) *tensor
}

// oracle runs a network view on the reference layers. Its dropout streams
// start at seed 1 and Reseed moves layer i to seed + i*7919, exactly as a
// fresh workspace and Workspace.Reseed do.
type oracle struct {
	net    *Network
	layers []oracleLayer
}

// zeroGrads clears every parameter gradient accumulator of net.
func zeroGrads(net *Network) {
	for _, p := range net.Params() {
		clear(p.G)
	}
}

func newOracle(net *Network) *oracle {
	o := &oracle{net: net}
	for _, l := range net.layers {
		var ol oracleLayer
		switch l := l.(type) {
		case *ReLU:
			ol = &oracleReLU{}
		case *MaxPool1D:
			ol = &oraclePool{size: l.size}
		case *Dropout:
			ol = &oracleDropout{p: l.p, rng: rand.New(rand.NewSource(1))}
		case *Flatten:
			ol = &oracleFlatten{}
		case *Dense:
			ol = &oracleDense{Dense: l}
		case *Conv1D:
			ol = &oracleConv{Conv1D: l}
		}
		o.layers = append(o.layers, ol)
	}
	return o
}

// Reseed gives every dropout layer a deterministic stream derived from
// seed.
func (o *oracle) Reseed(seed int64) {
	for i, l := range o.layers {
		if d, ok := l.(*oracleDropout); ok {
			d.rng = rand.New(rand.NewSource(seed + int64(i)*7919))
		}
	}
}

// NumClasses implements Engine.
func (o *oracle) NumClasses() int { return o.net.nClasses }

// Forward runs the network on a flat input vector and returns the logits.
// train enables dropout.
func (o *oracle) Forward(x []float64, train bool) []float64 {
	t := &tensor{shape: append([]int(nil), o.net.inShape...), data: append([]float64(nil), x...)}
	for _, l := range o.layers {
		t = l.forward(t, train)
	}
	return t.data
}

// Backward propagates dLogits back through the network (after a Forward)
// and returns the gradient with respect to the flat input. Parameter
// gradients are accumulated.
func (o *oracle) Backward(dLogits []float64) []float64 {
	g := &tensor{shape: []int{len(dLogits)}, data: append([]float64(nil), dLogits...)}
	for i := len(o.layers) - 1; i >= 0; i-- {
		g = o.layers[i].backward(g)
	}
	return g.data
}

// Logits implements Engine.
func (o *oracle) Logits(x []float64) []float64 { return o.Forward(x, false) }

// Probs implements Engine.
func (o *oracle) Probs(x []float64) []float64 { return softmax(o.Logits(x)) }

// Predict implements Engine.
func (o *oracle) Predict(x []float64) int { return Argmax(o.Logits(x)) }

// LossGrad implements Engine.
func (o *oracle) LossGrad(x []float64, label int) (float64, []float64) {
	logits := o.Forward(x, false)
	loss, dLogits := softmaxCE(logits, label)
	zeroGrads(o.net)
	return loss, o.Backward(dLogits)
}

// Jacobian implements Engine: one forward and nClasses backward passes.
func (o *oracle) Jacobian(x []float64) ([]float64, [][]float64) {
	logits := o.Forward(x, false)
	jac := make([][]float64, len(logits))
	for k := range logits {
		d := make([]float64, len(logits))
		d[k] = 1
		zeroGrads(o.net)
		jac[k] = o.Backward(d)
	}
	return logits, jac
}

// InputGrad implements Engine: Backward after zeroing the parameter
// gradients, so the accumulators hold nothing stale afterwards.
func (o *oracle) InputGrad(dLogits []float64) []float64 {
	zeroGrads(o.net)
	return o.Backward(dLogits)
}

var _ Engine = (*oracle)(nil)

// softmax returns the numerically stable softmax of logits.
func softmax(logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// softmaxCE returns the cross-entropy loss of logits against label and the
// gradient of the loss with respect to the logits (p - onehot).
func softmaxCE(logits []float64, label int) (float64, []float64) {
	p := softmax(logits)
	d := make([]float64, len(p))
	copy(d, p)
	d[label] -= 1
	// Clamp to avoid log(0) on saturated predictions.
	q := p[label]
	if q < 1e-300 {
		q = 1e-300
	}
	return -math.Log(q), d
}

type oracleReLU struct{ mask []bool }

func (r *oracleReLU) forward(x *tensor, _ bool) *tensor {
	y := x.clone()
	r.mask = make([]bool, len(y.data))
	for i, v := range y.data {
		if v > 0 {
			r.mask[i] = true
			continue
		}
		y.data[i] = 0
	}
	return y
}

func (r *oracleReLU) backward(grad *tensor) *tensor {
	dx := grad.clone()
	for i := range dx.data {
		if !r.mask[i] {
			dx.data[i] = 0
		}
	}
	return dx
}

type oraclePool struct {
	size           int
	argmax         []int
	inRows, inCols int
}

func (m *oraclePool) forward(x *tensor, _ bool) *tensor {
	rows, cols := x.rows(), x.cols()
	lout := cols / m.size
	m.inRows, m.inCols = rows, cols
	y := newTensor(rows, lout)
	m.argmax = make([]int, rows*lout)
	for r := 0; r < rows; r++ {
		xRow := x.row(r)
		yRow := y.row(r)
		for t := 0; t < lout; t++ {
			base := t * m.size
			best := base
			for j := base + 1; j < base+m.size; j++ {
				if xRow[j] > xRow[best] {
					best = j
				}
			}
			yRow[t] = xRow[best]
			m.argmax[r*lout+t] = best
		}
	}
	return y
}

func (m *oraclePool) backward(grad *tensor) *tensor {
	dx := newTensor(m.inRows, m.inCols)
	lout := grad.cols()
	for r := 0; r < m.inRows; r++ {
		gRow := grad.row(r)
		dxRow := dx.row(r)
		for t := 0; t < lout; t++ {
			dxRow[m.argmax[r*lout+t]] += gRow[t]
		}
	}
	return dx
}

type oracleDropout struct {
	p    float64
	rng  *rand.Rand
	mask []float64
}

func (d *oracleDropout) forward(x *tensor, train bool) *tensor {
	if !train || d.p <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.p
	scale := 1 / keep
	y := x.clone()
	d.mask = make([]float64, len(y.data))
	for i := range y.data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			y.data[i] *= scale
		} else {
			y.data[i] = 0
		}
	}
	return y
}

func (d *oracleDropout) backward(grad *tensor) *tensor {
	if d.mask == nil {
		return grad
	}
	dx := grad.clone()
	for i := range dx.data {
		dx.data[i] *= d.mask[i]
	}
	return dx
}

type oracleFlatten struct{ inShape []int }

func (f *oracleFlatten) forward(x *tensor, _ bool) *tensor {
	f.inShape = append([]int(nil), x.shape...)
	return &tensor{shape: []int{len(x.data)}, data: x.data}
}

func (f *oracleFlatten) backward(grad *tensor) *tensor {
	return &tensor{shape: append([]int(nil), f.inShape...), data: grad.data}
}

type oracleDense struct {
	*Dense
	x *tensor
}

func (d *oracleDense) forward(x *tensor, _ bool) *tensor {
	if len(x.data) != d.in {
		panic(fmt.Sprintf("nn: %s: input size %d, want %d", d.name, len(x.data), d.in))
	}
	d.x = x
	y := newTensor(d.out)
	for o := 0; o < d.out; o++ {
		row := d.w.W[o*d.in : (o+1)*d.in]
		sum := d.b.W[o]
		for i, xi := range x.data {
			sum += row[i] * xi
		}
		y.data[o] = sum
	}
	return y
}

func (d *oracleDense) backward(grad *tensor) *tensor {
	dx := newTensor(d.in)
	for o := 0; o < d.out; o++ {
		g := grad.data[o]
		d.b.G[o] += g
		if g == 0 {
			continue
		}
		row := d.w.W[o*d.in : (o+1)*d.in]
		gw := d.w.G[o*d.in : (o+1)*d.in]
		for i, xi := range d.x.data {
			gw[i] += g * xi
			dx.data[i] += row[i] * g
		}
	}
	return dx
}

type oracleConv struct {
	*Conv1D
	x *tensor
}

// forward takes a (cin, L) input to a (cout, OutLen(L)) output.
func (c *oracleConv) forward(x *tensor, _ bool) *tensor {
	if x.rows() != c.cin {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d", c.name, x.rows(), c.cin))
	}
	c.x = x
	l := x.cols()
	pad := c.pad()
	lout := c.OutLen(l)
	y := newTensor(c.cout, lout)
	for o := 0; o < c.cout; o++ {
		yRow := y.row(o)
		bias := c.b.W[o]
		for t := range yRow {
			yRow[t] = bias
		}
		for ci := 0; ci < c.cin; ci++ {
			wBase := (o*c.cin + ci) * c.k
			wRow := c.w.W[wBase : wBase+c.k]
			xRow := x.row(ci)
			for j, wj := range wRow {
				// y[t] += w[j] * x[t+j-pad]
				off := j - pad
				lo := 0
				if off < 0 {
					lo = -off
				}
				hi := lout
				if hi > l-off {
					hi = l - off
				}
				for t := lo; t < hi; t++ {
					yRow[t] += wj * xRow[t+off]
				}
			}
		}
	}
	return y
}

func (c *oracleConv) backward(grad *tensor) *tensor {
	x := c.x
	l := x.cols()
	pad := c.pad()
	lout := grad.cols()
	dx := newTensor(c.cin, l)
	for o := 0; o < c.cout; o++ {
		gRow := grad.row(o)
		var gSum float64
		for _, g := range gRow {
			gSum += g
		}
		c.b.G[o] += gSum
		for ci := 0; ci < c.cin; ci++ {
			wBase := (o*c.cin + ci) * c.k
			wRow := c.w.W[wBase : wBase+c.k]
			gw := c.w.G[wBase : wBase+c.k]
			xRow := x.row(ci)
			dxRow := dx.row(ci)
			for j := 0; j < c.k; j++ {
				off := j - pad
				lo := 0
				if off < 0 {
					lo = -off
				}
				hi := lout
				if hi > l-off {
					hi = l - off
				}
				var dwj float64
				wj := wRow[j]
				for t := lo; t < hi; t++ {
					g := gRow[t]
					dwj += g * xRow[t+off]
					dxRow[t+off] += wj * g
				}
				gw[j] += dwj
			}
		}
	}
	return dx
}
