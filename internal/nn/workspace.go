package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Workspace is the execution engine for one Network view, and the only
// one: every verdict, training step and attack gradient runs here, on a
// batch plan (batch.go). It holds three: an infer plan for ProbsBatch, a
// grad plan of one row for the single-row queries (Logits, Probs,
// Predict, SafeProbs, LossGrad, InputGrad, Jacobian), built here with
// the workspace, and a train plan for TrainStep and the Trainer, built on
// first use. Every buffer is sized from the architecture and reused, so
// the steady-state hot loops (attack iterations, training steps, classify
// probes) run with zero heap allocations.
//
// Training accumulates parameter gradients into the Param.G buffers of
// the network view the workspace was built from, so the data-parallel
// trainer keeps its one-view-per-worker reduction. The input-gradient
// queries never touch Param.G: attacks never read it.
//
// Slices returned by workspace methods alias internal buffers and are
// valid only until the next call on the same workspace, with one
// exception the attack loops rely on: the logits that Logits or Jacobian
// return stay valid across the InputGrad calls that follow them. A
// workspace is not safe for concurrent use: give each goroutine its own
// CloneShared view and workspace (weights stay shared, everything
// mutable is per-workspace).
type Workspace struct {
	net    *Network
	states []wsState
	probs  []float64   // softmax output
	jac    [][]float64 // nClasses rows of inputDim
	inDim  int
	shapes [][]int                   // activation shape at every layer boundary
	plans  [planTrain + 1]*batchPlan // by kind; the grad plan always exists
}

// wsState is the per-layer state a workspace owns so running the engine
// never mutates the Network's layers: a Dropout layer's RNG stream and a
// k=3 convolution's weight-gradient scratch, the im2col copy of its input
// and convDwGo's row masks (see Conv1D.bwdDw).
type wsState struct {
	rng    *rand.Rand
	dwCols []float64
	dwMask []uint64
}

// NewWorkspace builds a workspace for net and its grad plan, from the
// shape each layer's outShape gives at its boundary; a layer that cannot
// take its input shape panics here, naming itself. Dropout streams start
// from the same deterministic default for every view (seed 1); call
// Reseed before train-mode use when a specific stream is required.
func NewWorkspace(net *Network) *Workspace {
	ws := &Workspace{
		net:    net,
		states: make([]wsState, len(net.layers)),
		probs:  make([]float64, net.nClasses),
		inDim:  net.InputDim(),
		shapes: net.shapes(),
	}
	for i, l := range net.layers {
		switch l := l.(type) {
		case *Dropout:
			ws.states[i].rng = rand.New(rand.NewSource(1))
		case *Conv1D:
			if l.k == 3 {
				ws.states[i].dwCols = make([]float64, shapeCols(ws.shapes[i+1])*l.cin*3)
				ws.states[i].dwMask = l.dwMask()
			}
		}
	}
	ws.jac = make([][]float64, net.nClasses)
	jacFlat := make([]float64, net.nClasses*ws.inDim)
	for k := range ws.jac {
		ws.jac[k] = jacFlat[k*ws.inDim : (k+1)*ws.inDim]
	}
	ws.plan(1, planGrad)
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

// NumClasses implements Engine.
func (ws *Workspace) NumClasses() int { return ws.net.nClasses }

// Reseed gives every Dropout layer a deterministic stream derived from
// seed: layer i draws from seed + i*7919.
func (ws *Workspace) Reseed(seed int64) {
	for i, l := range ws.net.layers {
		if _, ok := l.(*Dropout); ok {
			ws.states[i].rng = rand.New(rand.NewSource(seed + int64(i)*7919))
		}
	}
}

// Logits implements Engine: the eval-mode forward pass on the grad plan.
// The input length must equal InputDim; a mismatch panics (use SafeProbs
// on untrusted inputs). The returned logits survive the InputGrad calls
// that follow.
func (ws *Workspace) Logits(x []float64) []float64 {
	bp := ws.plans[planGrad]
	bp.load(0, x)
	ws.forwardRows(bp, 1)
	return bp.acts[len(bp.acts)-1]
}

// Probs implements Engine: softmax class probabilities, eval mode.
func (ws *Workspace) Probs(x []float64) []float64 {
	return SoftmaxInto(ws.probs, ws.Logits(x))
}

// Predict implements Engine: the argmax class, eval mode.
func (ws *Workspace) Predict(x []float64) int { return Argmax(ws.Logits(x)) }

// InputGrad implements Engine: it back-propagates dLogits through the
// boundaries the last Logits, Probs or Predict kept and returns the
// gradient with respect to the flat input, accumulating no parameter
// gradient. After Logits, InputGrad seeded with e_a - e_b is the
// gradient of the margin z_a - z_b: one backward pass where Jacobian
// runs one per class.
func (ws *Workspace) InputGrad(dLogits []float64) []float64 {
	bp := ws.plans[planGrad]
	copy(bp.gin, dLogits)
	return ws.backwardRows(bp, 1)[:ws.inDim]
}

// LossGrad implements Engine: the cross-entropy loss at x for label and
// the gradient of that loss with respect to the input (eval mode).
func (ws *Workspace) LossGrad(x []float64, label int) (float64, []float64) {
	logits := ws.Logits(x)
	bp := ws.plans[planGrad]
	loss := softmaxCEInto(bp.gin[:len(logits)], logits, label)
	return loss, ws.backwardRows(bp, 1)[:ws.inDim]
}

// Jacobian implements Engine: one forward pass plus nClasses backward
// passes over the boundaries it kept, filling the workspace's
// preallocated (nClasses x inputDim) row set.
func (ws *Workspace) Jacobian(x []float64) ([]float64, [][]float64) {
	logits := ws.Logits(x)
	bp := ws.plans[planGrad]
	seed := bp.gin[:len(logits)]
	for k, row := range ws.jac {
		clear(seed)
		seed[k] = 1
		copy(row, ws.backwardRows(bp, 1))
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
	bp := ws.plan(1, planTrain)
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

// ProbsBatch runs eval-mode softmax probabilities for every row of xs on
// the infer plan: layers outside, rows inside, with the Dense weights read
// once per batch, bit-identical to Probs row by row. Rows are written into
// dst, which is grown as needed and returned; pass a previously returned
// dst to make steady-state batches allocation-free. Row lengths are
// validated like Logits (a mismatch panics; the serving path validates
// before enqueueing).
func (ws *Workspace) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	dst = growRows(dst, len(xs), ws.net.nClasses)
	bp := ws.plan(len(xs), planInfer)
	for r, x := range xs {
		bp.load(r, x)
	}
	ws.forwardRows(bp, len(xs))
	last := len(bp.acts) - 1
	logits, stride := bp.acts[last], bp.sizes[last]
	for r := range xs {
		SoftmaxInto(dst[r], logits[r*stride:r*stride+ws.net.nClasses])
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
