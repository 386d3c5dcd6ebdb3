package nn

// Engine is the inference/gradient surface the adversarial attacks,
// evaluation harnesses, and serving paths drive. There is one arithmetic,
// float64 throughout: the verdict a replica serves and the gradient an
// attack reads come from the same computation. *Workspace is the one
// implementation in this package — all activation, dropout-mask and
// gradient buffers are preallocated once from the layer shapes, and
// every call writes into them. The interface stays so tests can put
// something in its place: this package's bit-identity tests run an
// allocating reference beside it, and the attack tests a wrapper that
// copies every slice it returns.
//
// Slices a *Workspace returns alias internal buffers and are only valid
// until the next call on the same workspace — copy them if they must
// survive. A workspace is not safe for concurrent use; give each
// goroutine its own CloneShared view and workspace (see Network.WS).
type Engine interface {
	// NumClasses returns the logit dimension.
	NumClasses() int
	// Forward runs a forward pass on a flat input and returns the logits.
	Forward(x []float64, train bool) []float64
	// Logits is an eval-mode forward pass.
	Logits(x []float64) []float64
	// Probs returns the softmax class probabilities (eval mode).
	Probs(x []float64) []float64
	// Predict returns the argmax class (eval mode).
	Predict(x []float64) int
	// LossGrad returns the cross-entropy loss at x for label and the
	// gradient of that loss with respect to the input (eval mode).
	LossGrad(x []float64, label int) (float64, []float64)
	// Jacobian returns the logits and the full (nClasses x inputDim)
	// Jacobian of the logits with respect to the input: one forward and
	// nClasses backward passes, for an attack that reads every row (JSMA).
	Jacobian(x []float64) ([]float64, [][]float64)
	// InputGrad back-propagates dLogits through the network after a
	// Forward and returns the gradient with respect to the flat input.
	// Seeded with e_a - e_b it is the gradient of the margin z_a - z_b in
	// one backward pass, which is how C&W, EAD and DeepFool read it.
	InputGrad(dLogits []float64) []float64
}

var _ Engine = (*Workspace)(nil)
