package nn

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"advmal/internal/tensor"
)

// ErrBadInput indicates an input vector the network cannot process — a
// wrong dimension or a value that makes a layer panic. Serving paths use
// the Safe* methods so untrusted feature vectors surface this error
// instead of crashing the process.
var ErrBadInput = errors.New("nn: bad input")

// Network is a feed-forward stack of layers whose final output is the
// logit vector. The zero value is unusable; build with NewNetwork or
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
// private caches and gradients, for data-parallel training and crafting.
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

// Reseed gives every stochastic layer a deterministic stream derived from
// seed.
func (n *Network) Reseed(seed int64) {
	for i, l := range n.layers {
		if r, ok := l.(Reseeder); ok {
			r.Reseed(seed + int64(i)*7919)
		}
	}
}

// Forward runs the network on a flat input vector and returns the logits.
// train enables dropout.
func (n *Network) Forward(x []float64, train bool) []float64 {
	t := &tensor.T{Shape: append([]int(nil), n.inShape...), Data: append([]float64(nil), x...)}
	for _, l := range n.layers {
		t = l.Forward(t, train)
	}
	return t.Data
}

// Backward propagates dLogits back through the network (after a Forward)
// and returns the gradient with respect to the flat input. Parameter
// gradients are accumulated.
func (n *Network) Backward(dLogits []float64) []float64 {
	g := &tensor.T{Shape: []int{len(dLogits)}, Data: append([]float64(nil), dLogits...)}
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g)
	}
	return g.Data
}

// SafeForward is Forward with the layer-panic boundary: a shape mismatch
// or any other panic raised by a layer on an untrusted input is recovered
// and returned as an error wrapping ErrBadInput. The input dimension is
// validated up front.
func (n *Network) SafeForward(x []float64, train bool) (out []float64, err error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(x), n.InputDim())
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: layer panic: %v", ErrBadInput, r)
		}
	}()
	return n.Forward(x, train), nil
}

// SafeBackward is Backward with the same panic boundary as SafeForward.
func (n *Network) SafeBackward(dLogits []float64) (g []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("%w: layer panic: %v", ErrBadInput, r)
		}
	}()
	return n.Backward(dLogits), nil
}

// SafeProbs returns the softmax class probabilities for x with the
// layer-panic boundary applied — the serving-path counterpart of Probs.
func (n *Network) SafeProbs(x []float64) ([]float64, error) {
	logits, err := n.SafeForward(x, false)
	if err != nil {
		return nil, err
	}
	return Softmax(logits), nil
}

// Logits runs an eval-mode forward pass.
func (n *Network) Logits(x []float64) []float64 { return n.Forward(x, false) }

// Probs returns the softmax class probabilities for x (eval mode).
func (n *Network) Probs(x []float64) []float64 { return Softmax(n.Logits(x)) }

// Predict returns the argmax class for x (eval mode).
func (n *Network) Predict(x []float64) int { return Argmax(n.Logits(x)) }

// LossGrad returns the cross-entropy loss at x for the true label and the
// gradient of that loss with respect to the input (eval mode, exact).
func (n *Network) LossGrad(x []float64, label int) (float64, []float64) {
	logits := n.Forward(x, false)
	loss, dLogits := SoftmaxCE(logits, label)
	n.ZeroGrad()
	return loss, n.Backward(dLogits)
}

// Jacobian returns the full (nClasses x inputDim) Jacobian of the logits
// with respect to the input, plus the logits themselves. It runs one
// forward and nClasses backward passes.
func (n *Network) Jacobian(x []float64) ([]float64, [][]float64) {
	logits := n.Forward(x, false)
	jac := make([][]float64, len(logits))
	for k := range logits {
		d := make([]float64, len(logits))
		d[k] = 1
		n.ZeroGrad()
		jac[k] = n.Backward(d)
	}
	return logits, jac
}

// InputGrad implements Engine: it back-propagates dLogits through the
// network after a Forward and returns the gradient with respect to the
// flat input, discarding parameter gradients (they are zeroed first so
// the accumulators hold nothing stale afterwards).
func (n *Network) InputGrad(dLogits []float64) []float64 {
	n.ZeroGrad()
	return n.Backward(dLogits)
}

// Softmax returns the numerically stable softmax of logits.
func Softmax(logits []float64) []float64 {
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

// SoftmaxCE returns the cross-entropy loss of logits against label and the
// gradient of the loss with respect to the logits (p - onehot).
func SoftmaxCE(logits []float64, label int) (float64, []float64) {
	p := Softmax(logits)
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

// Summary renders a per-layer architecture description with output shapes,
// reproducing Fig. 5 of the paper.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Input: %v\n", n.inShape)
	t := tensor.New(n.inShape...)
	clone := n.CloneShared() // avoid clobbering live caches
	for _, l := range clone.layers {
		t = l.Forward(t, false)
		params := 0
		for _, p := range l.Params() {
			params += len(p.W)
		}
		fmt.Fprintf(&sb, "%-12s -> %-12v params=%d\n", l.Name(), t.Shape, params)
	}
	fmt.Fprintf(&sb, "Total params: %d\n", n.NumParams())
	return sb.String()
}
