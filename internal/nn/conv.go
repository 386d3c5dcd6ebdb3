package nn

import (
	"fmt"
	"math/rand"

	"advmal/internal/tensor"
)

// Conv1D is a 1-D convolution over (channels, length) activations with
// kernel size K, stride 1, and either "same" (zero) or "valid" padding —
// the two variants the paper's architecture uses.
type Conv1D struct {
	name      string
	cin, cout int
	k         int
	same      bool
	w         *Param // cout * cin * k
	b         *Param // cout
	x         *tensor.T
}

// NewConv1D returns a Conv1D with He-initialized weights.
func NewConv1D(name string, cin, cout, k int, samePad bool, rng *rand.Rand) *Conv1D {
	c := &Conv1D{
		name: name,
		cin:  cin, cout: cout, k: k, same: samePad,
		w: &Param{Name: name + ".w", W: make([]float64, cout*cin*k), G: make([]float64, cout*cin*k)},
		b: &Param{Name: name + ".b", W: make([]float64, cout), G: make([]float64, cout)},
	}
	heInit(rng, c.w.W, cin*k)
	return c
}

// Name implements Layer.
func (c *Conv1D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// CloneShared implements Layer.
func (c *Conv1D) CloneShared() Layer {
	return &Conv1D{
		name: c.name,
		cin:  c.cin, cout: c.cout, k: c.k, same: c.same,
		w: &Param{Name: c.w.Name, W: c.w.W, G: make([]float64, len(c.w.G))},
		b: &Param{Name: c.b.Name, W: c.b.W, G: make([]float64, len(c.b.G))},
	}
}

func (c *Conv1D) pad() int {
	if c.same {
		return (c.k - 1) / 2
	}
	return 0
}

// OutLen returns the output length for input length l.
func (c *Conv1D) OutLen(l int) int { return l + 2*c.pad() - c.k + 1 }

// Forward implements Layer. Input shape (cin, L); output (cout, OutLen(L)).
func (c *Conv1D) Forward(x *tensor.T, _ bool) *tensor.T {
	if x.Rows() != c.cin {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d", c.name, x.Rows(), c.cin))
	}
	c.x = x
	l := x.Cols()
	pad := c.pad()
	lout := c.OutLen(l)
	y := tensor.New2D(c.cout, lout)
	for o := 0; o < c.cout; o++ {
		yRow := y.Row(o)
		bias := c.b.W[o]
		for t := range yRow {
			yRow[t] = bias
		}
		for ci := 0; ci < c.cin; ci++ {
			wBase := (o*c.cin + ci) * c.k
			wRow := c.w.W[wBase : wBase+c.k]
			xRow := x.Row(ci)
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

// Backward implements Layer.
func (c *Conv1D) Backward(grad *tensor.T) *tensor.T {
	x := c.x
	l := x.Cols()
	pad := c.pad()
	lout := grad.Cols()
	dx := tensor.New2D(c.cin, l)
	for o := 0; o < c.cout; o++ {
		gRow := grad.Row(o)
		var gSum float64
		for _, g := range gRow {
			gSum += g
		}
		c.b.G[o] += gSum
		for ci := 0; ci < c.cin; ci++ {
			wBase := (o*c.cin + ci) * c.k
			wRow := c.w.W[wBase : wBase+c.k]
			gw := c.w.G[wBase : wBase+c.k]
			xRow := x.Row(ci)
			dxRow := dx.Row(ci)
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

var _ Layer = (*Conv1D)(nil)
