package nn

import (
	"fmt"
	"math/rand"
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

func (c *Conv1D) outShape(in []int) []int {
	if rows := shapeRows(in); rows != c.cin {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d", c.name, rows, c.cin))
	}
	return []int{c.cout, c.OutLen(shapeCols(in))}
}
