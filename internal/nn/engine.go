package nn

// Engine is the inference/gradient surface the adversarial attacks,
// evaluation harnesses, and serving paths drive. Two implementations
// exist:
//
//   - *Network — the allocating reference path ("the oracle"): every call
//     returns freshly allocated slices. Simple, obviously correct, and the
//     ground truth the property tests compare against.
//   - *Workspace — the zero-allocation engine: all activation, mask,
//     argmax, and gradient buffers are preallocated once from the layer
//     shapes, and every call writes into them. Bit-for-bit identical to
//     the oracle, several times faster, and the path every hot loop
//     (attack iteration, training step, GEA classify probe) runs on.
//
// Contract difference callers must respect: slices returned by a
// *Workspace alias internal buffers and are only valid until the next
// call on the same workspace — copy them if they must survive. Neither
// implementation is safe for concurrent use; give each goroutine its own
// CloneShared view and workspace (see Network.WS).
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

// InferenceEngine is the forward-only subset of Engine — what a serving
// tier needs and nothing more. The int8 quantized engine (*QuantWS)
// implements exactly this subset: it cannot honestly provide gradients
// (its arithmetic is not the differentiable float64 computation the
// attacks assume), so it deliberately does not implement Engine.
type InferenceEngine interface {
	// NumClasses returns the logit dimension.
	NumClasses() int
	// Logits is an eval-mode forward pass.
	Logits(x []float64) []float64
	// Probs returns the softmax class probabilities (eval mode).
	Probs(x []float64) []float64
	// Predict returns the argmax class (eval mode).
	Predict(x []float64) int
}

// Interface compliance: the allocating oracle and the workspace engine
// expose the same surface, so attacks and harnesses run on either; the
// quantized workspace joins them on the inference-only subset.
var (
	_ Engine = (*Network)(nil)
	_ Engine = (*Workspace)(nil)

	_ InferenceEngine = (*Network)(nil)
	_ InferenceEngine = (*Workspace)(nil)
	_ InferenceEngine = (*QuantWS)(nil)
)
