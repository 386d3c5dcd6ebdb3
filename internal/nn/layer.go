// Package nn is the deep-learning substrate: a from-scratch CNN with the
// paper's exact architecture (Fig. 5), hand-written forward and backward
// passes, the Adam optimizer, a data-parallel trainer, evaluation
// metrics (accuracy / FNR / FPR), and the input-gradient and per-logit
// Jacobian queries the adversarial attacks require.
//
// A Network is architecture plus parameters; a Workspace executes it. A
// network's layers hold only their configuration and weights, and every
// buffer a pass writes — activations, gradients, dropout masks and
// streams — lives in the workspace. CloneShared produces a view that
// shares weights but has private gradient buffers and its own workspace,
// so clones may run forward/backward in parallel as long as nobody is
// updating the shared weights at the same time.
package nn

import (
	"math"
	"math/rand"
)

// Param is one learnable parameter tensor. W is shared between a network
// and its CloneShared views; G is private to each view.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is one differentiable stage of the network. The interface is
// sealed by its unexported outShape, so every layer is one of this
// package's six types, each of which the batch plans (batch.go) know how
// to run in both directions.
type Layer interface {
	Name() string
	Params() []*Param
	// CloneShared returns a view sharing weights but with private
	// gradient buffers.
	CloneShared() Layer
	// outShape returns the layer's output shape for input shape in,
	// panicking, with the layer's name, on an input it cannot take.
	outShape(in []int) []int
}

// shapeSize is the element count of shape.
func shapeSize(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// shapeRows is the first dimension of a (rows, cols) shape, 1 for a flat
// one; shapeCols is the last dimension.
func shapeRows(shape []int) int {
	if len(shape) < 2 {
		return 1
	}
	return shape[0]
}

func shapeCols(shape []int) int { return shape[len(shape)-1] }

// heInit fills w with He-normal initialization for fanIn inputs.
func heInit(rng *rand.Rand, w []float64, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}
