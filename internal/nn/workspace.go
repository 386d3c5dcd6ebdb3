package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Workspace is the execution engine for one Network view, and the only
// one: every verdict, training step and attack gradient runs here. It
// preallocates every buffer a forward/backward pass needs — one
// activation buffer per layer boundary, one gradient buffer per boundary,
// per-layer dropout and convolution scratch, and the softmax/Jacobian
// output buffers — sized once from the architecture, so the steady-state hot
// loops (attack iterations, training steps, classify probes) run with
// zero heap allocations.
//
// A workspace accumulates parameter gradients into the Param.G buffers of
// the network view it was built from, so the data-parallel trainer keeps
// its one-view-per-worker reduction.
// The input-gradient queries (LossGrad, Jacobian, InputGrad) skip the
// parameter-gradient work entirely — attacks never read it — and are
// therefore roughly half the cost of a full Backward on the paper
// architecture. The Conv1D and Dense backward passes run on the AVX
// primitives of kernels_bwd.go, under the same bit-identity contract as
// the forward ones.
//
// Slices returned by workspace methods alias internal buffers and are
// valid only until the next call on the same workspace. A workspace is
// not safe for concurrent use: give each goroutine its own CloneShared
// view and workspace (weights stay shared, everything mutable is
// per-workspace).
type Workspace struct {
	net    *Network
	states []wsState
	// acts[i] is the input of layer i; acts[len(layers)] the logits.
	acts [][]float64
	// gbufs[i] is the gradient w.r.t. acts[i].
	gbufs  [][]float64
	params []*Param
	dlog   []float64   // dLoss/dLogits scratch
	probs  []float64   // softmax output
	jac    [][]float64 // nClasses rows of inputDim
	inDim  int
	shapes [][]int    // activation shape at every layer boundary
	bp, tp *batchPlan // batch-major eval and train buffers, built on first use
}

// wsState is the per-layer state a workspace owns so running the engine
// never mutates the Network's layers: the layer's input and output
// shapes, Dropout masks and RNG streams, and a convolution's scratch.
// ReLU and MaxPool1D keep nothing: their backward passes re-derive the
// mask and the argmax from the layer input acts[i], which nothing
// overwrites between a Forward and its backprops.
type wsState struct {
	in, out []int
	fmask   []float64
	rng     *rand.Rand
	dropped bool
	// A k=3 Conv1D's weight-gradient scratch: the im2col copy of its
	// input and convDw's row masks (see Conv1D.bwdDw).
	dwCols []float64
	dwMask []uint64
}

// NewWorkspace builds a workspace for net, preallocating every buffer
// from the shape each layer's outShape gives at its boundary; a layer
// that cannot take its input shape panics here, naming itself. Dropout
// streams start from the same deterministic default for every view (seed
// 1); call Reseed before train-mode use when a specific stream is
// required.
func NewWorkspace(net *Network) *Workspace {
	shapes := net.shapes()
	ws := &Workspace{
		net:    net,
		states: make([]wsState, len(net.layers)),
		acts:   make([][]float64, len(net.layers)+1),
		gbufs:  make([][]float64, len(net.layers)+1),
		params: net.Params(),
		dlog:   make([]float64, net.nClasses),
		probs:  make([]float64, net.nClasses),
		inDim:  net.InputDim(),
		shapes: shapes,
	}
	ws.acts[0] = make([]float64, ws.inDim)
	ws.gbufs[0] = make([]float64, ws.inDim)
	for i, l := range net.layers {
		outSize := shapeSize(shapes[i+1])
		if _, isFlatten := l.(*Flatten); isFlatten {
			// Flatten is a pure reshape: its output buffers are its input
			// buffers, so forward and backward through it are no-ops.
			ws.acts[i+1], ws.gbufs[i+1] = ws.acts[i], ws.gbufs[i]
		} else {
			ws.acts[i+1] = make([]float64, outSize)
			ws.gbufs[i+1] = make([]float64, outSize)
		}
		ws.states[i].in, ws.states[i].out = shapes[i], shapes[i+1]
		switch l := l.(type) {
		case *Dropout:
			ws.states[i].fmask = make([]float64, outSize)
			ws.states[i].rng = rand.New(rand.NewSource(1))
		case *Conv1D:
			if l.k == 3 {
				ws.states[i].dwCols = make([]float64, shapeCols(shapes[i+1])*l.cin*3)
				ws.states[i].dwMask = l.dwMask()
			}
		}
	}
	ws.jac = make([][]float64, net.nClasses)
	jacFlat := make([]float64, net.nClasses*ws.inDim)
	for k := range ws.jac {
		ws.jac[k] = jacFlat[k*ws.inDim : (k+1)*ws.inDim]
	}
	return ws
}

// WS returns the workspace lazily attached to this network view, creating
// it on first use; it is how code outside this package runs a network.
// Like the view itself, the workspace is single-threaded: per-worker
// CloneShared views each get their own via this method.
func (n *Network) WS() *Workspace {
	if n.ws == nil {
		n.ws = NewWorkspace(n)
	}
	return n.ws
}

// Net returns the network view this workspace executes.
func (ws *Workspace) Net() *Network { return ws.net }

// NumClasses implements Engine.
func (ws *Workspace) NumClasses() int { return ws.net.nClasses }

// InputDim returns the flat input dimension.
func (ws *Workspace) InputDim() int { return ws.inDim }

// Reseed gives every Dropout layer a deterministic stream derived from
// seed: layer i draws from seed + i*7919.
func (ws *Workspace) Reseed(seed int64) {
	for i, l := range ws.net.layers {
		if _, ok := l.(*Dropout); ok {
			ws.states[i].rng = rand.New(rand.NewSource(seed + int64(i)*7919))
		}
	}
}

// ZeroGrad clears the parameter gradients of the underlying view.
func (ws *Workspace) ZeroGrad() {
	for _, p := range ws.params {
		p.ZeroGrad()
	}
}

// Forward runs the network on a flat input vector and returns the logits
// (aliasing an internal buffer). train enables dropout. The input length
// must equal InputDim; a mismatch panics (use SafeProbs on untrusted
// inputs).
func (ws *Workspace) Forward(x []float64, train bool) []float64 {
	if len(x) != ws.inDim {
		panic(fmt.Sprintf("nn: workspace: input size %d, want %d", len(x), ws.inDim))
	}
	copy(ws.acts[0], x)
	for i, l := range ws.net.layers {
		l.fwdWS(&ws.states[i], ws.acts[i], ws.acts[i+1], train)
	}
	return ws.acts[len(ws.acts)-1]
}

// backprop propagates dLogits back through the buffers filled by the last
// Forward and returns the input gradient buffer. accum selects whether
// parameter gradients accumulate into the view's Param.G.
func (ws *Workspace) backprop(dLogits []float64, accum bool) []float64 {
	last := len(ws.gbufs) - 1
	copy(ws.gbufs[last], dLogits)
	for i := last - 1; i >= 0; i-- {
		ws.net.layers[i].bwdWS(&ws.states[i], ws.acts[i], ws.gbufs[i+1], ws.gbufs[i], accum)
	}
	return ws.gbufs[0]
}

// Backward propagates dLogits back through the network (after a Forward),
// accumulates parameter gradients into the view's Param.G, and returns
// the gradient with respect to the flat input (aliasing an internal
// buffer).
func (ws *Workspace) Backward(dLogits []float64) []float64 {
	return ws.backprop(dLogits, true)
}

// InputGrad implements Engine: Backward without the parameter-gradient
// accumulation, the variant every attack loop wants. The returned values
// are bit-identical to Backward's — the input gradient never depends on
// the parameter-gradient accumulators.
// After Logits, InputGrad seeded with e_a - e_b is the gradient of the
// margin z_a - z_b: one backward pass where Jacobian runs one per class.
func (ws *Workspace) InputGrad(dLogits []float64) []float64 {
	return ws.backprop(dLogits, false)
}

// Logits implements Engine (eval-mode forward pass).
func (ws *Workspace) Logits(x []float64) []float64 { return ws.Forward(x, false) }

// Probs implements Engine: softmax class probabilities, eval mode.
func (ws *Workspace) Probs(x []float64) []float64 {
	return SoftmaxInto(ws.probs, ws.Forward(x, false))
}

// Predict implements Engine: the argmax class, eval mode.
func (ws *Workspace) Predict(x []float64) int { return Argmax(ws.Forward(x, false)) }

// LossGrad implements Engine: the cross-entropy loss at x for label and
// the gradient of that loss with respect to the input (eval mode).
func (ws *Workspace) LossGrad(x []float64, label int) (float64, []float64) {
	logits := ws.Forward(x, false)
	loss := softmaxCEInto(ws.dlog, logits, label)
	return loss, ws.backprop(ws.dlog, false)
}

// Jacobian implements Engine: one forward pass plus nClasses backward
// passes, filling the workspace's preallocated (nClasses x inputDim) row
// set.
func (ws *Workspace) Jacobian(x []float64) ([]float64, [][]float64) {
	logits := ws.Forward(x, false)
	for k := range ws.jac {
		for i := range ws.dlog {
			ws.dlog[i] = 0
		}
		ws.dlog[k] = 1
		copy(ws.jac[k], ws.backprop(ws.dlog, false))
	}
	return logits, ws.jac
}

// TrainStep is one training row in one zero-allocation call: forward in
// train mode, weighted softmax cross-entropy, and a full backward
// accumulating parameter gradients into the view's Param.G. It returns
// the (weighted) loss and whether the prediction was correct. weight
// scales both the loss and the logit gradient (class weighting); 1
// applies no scaling. It is the one-row case of the batch-major pass the
// Trainer runs (trainRows), so both take the same code path.
func (ws *Workspace) TrainStep(x []float64, label int, weight float64) (float64, bool) {
	bp := ws.plan(1, true)
	bp.load(0, x)
	bp.labels[0], bp.weights[0] = label, weight
	ws.trainRows(bp, 1)
	return bp.loss[0], bp.hit[0]
}

// SafeProbs is the serving-path variant of Probs: the input dimension is
// validated up front, any layer panic on a poisoned vector is recovered
// as an error wrapping ErrBadInput, and the probabilities are returned in
// a fresh slice the caller may retain.
func (ws *Workspace) SafeProbs(x []float64) (out []float64, err error) {
	if len(x) != ws.inDim {
		return nil, fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(x), ws.inDim)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: layer panic: %v", ErrBadInput, r)
		}
	}()
	return append([]float64(nil), ws.Probs(x)...), nil
}

// ProbsBatch runs eval-mode softmax probabilities for every row of xs,
// batch-major (see batchPlan): layers outside, rows inside, on the per-row
// path's kernels and bit-identical to it, with the Dense weights read
// once per batch. Rows are written into dst, which is grown as needed and
// returned; pass a previously returned dst to make steady-state batches
// allocation-free.
func (ws *Workspace) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	dst = growRows(dst, len(xs), ws.net.nClasses)
	logits, stride := ws.forwardBatch(xs)
	for r := range xs {
		SoftmaxInto(dst[r], logits[r*stride:r*stride+ws.net.nClasses])
	}
	return dst
}

// PredictBatch runs eval-mode argmax predictions for every row of xs into
// dst (grown as needed and returned), batch-major like ProbsBatch.
func (ws *Workspace) PredictBatch(xs [][]float64, dst []int) []int {
	if cap(dst) < len(xs) {
		dst = make([]int, len(xs))
	}
	dst = dst[:len(xs)]
	logits, stride := ws.forwardBatch(xs)
	for r := range xs {
		dst[r] = Argmax(logits[r*stride : r*stride+ws.net.nClasses])
	}
	return dst
}

// growRows resizes dst to n rows of width cols, reusing existing rows.
func growRows(dst [][]float64, n, cols int) [][]float64 {
	if cap(dst) < n {
		grown := make([][]float64, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:n]
	for i := range dst {
		if len(dst[i]) != cols {
			dst[i] = make([]float64, cols)
		}
	}
	return dst
}

// SoftmaxInto writes the numerically stable softmax of logits into dst
// (which must have the same length) and returns dst.
func SoftmaxInto(dst, logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// softmaxCEInto writes the gradient of the cross-entropy loss of logits
// against label with respect to the logits (p - onehot) into d and
// returns the loss, clamped to stay finite on saturated predictions.
func softmaxCEInto(d, logits []float64, label int) float64 {
	SoftmaxInto(d, logits)
	q := d[label]
	d[label] -= 1
	if q < 1e-300 {
		q = 1e-300
	}
	return -math.Log(q)
}
