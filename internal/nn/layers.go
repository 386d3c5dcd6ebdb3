package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ReLU is the rectified-linear activation used after every convolutional
// and fully connected layer in the paper's network.
type ReLU struct{ name string }

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// CloneShared implements Layer.
func (r *ReLU) CloneShared() Layer { return &ReLU{name: r.name} }

func (r *ReLU) outShape(in []int) []int { return in }

// MaxPool1D is a max pooling layer with equal size and stride (the paper
// uses 2/2). Trailing elements that do not fill a window are dropped,
// matching standard "valid" pooling.
type MaxPool1D struct {
	name string
	size int
}

// NewMaxPool1D returns a MaxPool1D with the given window size (== stride).
func NewMaxPool1D(name string, size int) *MaxPool1D {
	return &MaxPool1D{name: name, size: size}
}

// Name implements Layer.
func (m *MaxPool1D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool1D) Params() []*Param { return nil }

// CloneShared implements Layer.
func (m *MaxPool1D) CloneShared() Layer { return &MaxPool1D{name: m.name, size: m.size} }

func (m *MaxPool1D) outShape(in []int) []int {
	return []int{shapeRows(in), shapeCols(in) / m.size}
}

// Dropout is inverted dropout: at train time activations are dropped with
// probability p and survivors scaled by 1/(1-p); at eval time it is the
// identity, so attack gradients are exact. Its random stream belongs to
// the workspace (see Workspace.Reseed).
type Dropout struct {
	name string
	p    float64
}

// NewDropout returns a Dropout layer with drop probability p.
func NewDropout(name string, p float64) *Dropout {
	return &Dropout{name: name, p: p}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// CloneShared implements Layer.
func (d *Dropout) CloneShared() Layer { return &Dropout{name: d.name, p: d.p} }

func (d *Dropout) outShape(in []int) []int { return in }

// Flatten reshapes (C, L) activations to a flat vector.
type Flatten struct{ name string }

// NewFlatten returns a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// CloneShared implements Layer.
func (f *Flatten) CloneShared() Layer { return &Flatten{name: f.name} }

func (f *Flatten) outShape(in []int) []int { return []int{shapeSize(in)} }

// Dense is a fully connected layer: y = W x + b.
type Dense struct {
	name    string
	in, out int
	w       *Param // out * in
	b       *Param // out
}

// NewDense returns a He-initialized Dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	pack := &densePack{}
	d := &Dense{
		name: name, in: in, out: out,
		w: &Param{Name: name + ".w", W: make([]float64, out*in), G: make([]float64, out*in), pack: pack},
		b: &Param{Name: name + ".b", W: make([]float64, out), G: make([]float64, out), pack: pack},
	}
	heInit(rng, d.w.W, in)
	return d
}

// densePack is the input-major copy of a Dense layer's weights that a
// lone row runs on (Dense.fwdPacked): wt[i*out+o] = W[o*in+i], so one
// input's weights are out consecutive values. Both Params of the layer
// and of every CloneShared view point at the one pack. It is built on
// first use after a write, under mu, and published by ready; every
// writer of W or b in this package (Adam.update, Network.Load,
// Network.CloneInto) marks it stale through Param.wrote. Like the
// weights themselves, it must not be read while they are written.
type densePack struct {
	mu    sync.Mutex
	ready atomic.Bool
	wt    []float64
	// exact is whether skipping an input that is zero leaves every
	// output's bits as they are: true when every weight is finite, so a
	// skipped product is ±0, and no bias is −0 or NaN, so no running
	// sum that adds it is −0 (−0 + +0 is +0) or a signalling NaN.
	exact bool
}

// get returns the pack of the layer with weights w (out x in) and bias b,
// building it if it is stale.
func (p *densePack) get(w, b []float64, in, out int) (wt []float64, exact bool) {
	if !p.ready.Load() {
		p.build(w, b, in, out)
	}
	return p.wt, p.exact
}

func (p *densePack) build(w, b []float64, in, out int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ready.Load() {
		return
	}
	if p.wt == nil {
		p.wt = make([]float64, in*out)
	}
	// Eight weight rows at a time, so that each input's eight values
	// fill one cache line of wt.
	for o0 := 0; o0 < out; o0 += 8 {
		o1 := min(o0+8, out)
		for i := 0; i < in; i++ {
			for o := o0; o < o1; o++ {
				p.wt[i*out+o] = w[o*in+i]
			}
		}
	}
	p.exact = true
	for _, v := range w {
		p.exact = p.exact && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	for _, v := range b {
		p.exact = p.exact && !math.IsNaN(v) && !(v == 0 && math.Signbit(v))
	}
	p.ready.Store(true)
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// CloneShared implements Layer.
func (d *Dense) CloneShared() Layer {
	return &Dense{
		name: d.name, in: d.in, out: d.out,
		w: &Param{Name: d.w.Name, W: d.w.W, G: make([]float64, len(d.w.G)), pack: d.w.pack},
		b: &Param{Name: d.b.Name, W: d.b.W, G: make([]float64, len(d.b.G)), pack: d.b.pack},
	}
}

func (d *Dense) outShape(in []int) []int {
	if n := shapeSize(in); n != d.in {
		panic(fmt.Sprintf("nn: %s: input size %d, want %d", d.name, n, d.in))
	}
	return []int{d.out}
}
