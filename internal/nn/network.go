package nn

import (
	"errors"
	"fmt"
	"strings"
)

// ErrBadInput indicates an input vector the network cannot process — a
// wrong dimension or a value that makes a layer panic. Serving paths use
// Workspace.SafeProbs so untrusted feature vectors surface this error
// instead of crashing the process.
var ErrBadInput = errors.New("nn: bad input")

// Network is a feed-forward stack of layers whose final output is the
// logit vector: architecture plus parameters. It runs on a Workspace
// (see WS). The zero value is unusable; build with NewNetwork or
// PaperCNN.
type Network struct {
	layers   []Layer
	inShape  []int
	nClasses int
	ws       *Workspace // lazily built by WS; never serialized or cloned
}

// NewNetwork assembles a network. inShape is the shape the flat input
// vector is reshaped to before the first layer (e.g. (1, 23)); nClasses is
// the size of the final logit vector.
func NewNetwork(inShape []int, nClasses int, layers ...Layer) *Network {
	return &Network{
		layers:   layers,
		inShape:  append([]int(nil), inShape...),
		nClasses: nClasses,
	}
}

// Layers returns the layer stack (not a copy).
func (n *Network) Layers() []Layer { return n.layers }

// NumClasses returns the logit dimension.
func (n *Network) NumClasses() int { return n.nClasses }

// InputDim returns the flat input dimension.
func (n *Network) InputDim() int {
	d := 1
	for _, s := range n.inShape {
		d *= s
	}
	return d
}

// Params returns every learnable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// CloneShared returns a view of the network sharing weights but with
// private gradients and its own workspace, for data-parallel training and
// crafting.
func (n *Network) CloneShared() *Network {
	c := &Network{
		inShape:  append([]int(nil), n.inShape...),
		nClasses: n.nClasses,
		layers:   make([]Layer, len(n.layers)),
	}
	for i, l := range n.layers {
		c.layers[i] = l.CloneShared()
	}
	return c
}

// Argmax returns the index of the largest element (first on ties).
func Argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// shapes returns the activation shape at every layer boundary: the input
// shape, then each layer's output shape.
func (n *Network) shapes() [][]int {
	shapes := [][]int{n.inShape}
	for _, l := range n.layers {
		shapes = append(shapes, l.outShape(shapes[len(shapes)-1]))
	}
	return shapes
}

// Summary renders a per-layer architecture description with output shapes,
// reproducing Fig. 5 of the paper.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Input: %v\n", n.inShape)
	shapes := n.shapes()
	for i, l := range n.layers {
		params := 0
		for _, p := range l.Params() {
			params += len(p.W)
		}
		fmt.Fprintf(&sb, "%-12s -> %-12v params=%d\n", l.Name(), shapes[i+1], params)
	}
	fmt.Fprintf(&sb, "Total params: %d\n", n.NumParams())
	return sb.String()
}
