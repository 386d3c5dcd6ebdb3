// Package serve is the online detection service: a stdlib-only HTTP
// front end over a core.Handle — the atomic pointer to the current
// immutable core.Model snapshot — whose inference core is a
// micro-batching scheduler (see Batcher). Engines re-bind to the
// handle's snapshot per batch and scale + infer under that one pinned
// Model, so a hot swap (POST /admin/swap, which cmd/retrain -swap-url
// drives) never mixes versions and never drops a request. Requests queue
// into a bounded channel; a handler that finds an engine free takes whatever has queued,
// up to the batch size, and executes it on that engine's zero-allocation
// nn.Workspace via ProbsBatch, on its own goroutine. The flush is
// work-conserving — no request waits for batch peers and an idle service
// hands nothing between goroutines — so a lone request costs one forward
// pass, while under load batches form by themselves and throughput
// approaches the batched-kernel ceiling.
//
// When a similarity corpus (index.Corpus) is wired in, the service also
// answers /v1/similar — k-NN family attribution and near-duplicate
// detection over the labeled training corpus — and classify verdicts
// carry a triage block scoring each query's distance to the corpus
// manifold (GEA splices land far from it; see internal/index).
//
// The package also owns the wire schema (Verdict) shared with
// cmd/classify's -json mode, the serving metrics registry, and the
// latency-summary helpers shared with cmd/loadgen.
package serve

import (
	"errors"
	"math"

	"advmal/internal/core"
	"advmal/internal/index"
	"advmal/internal/nn"
)

// ErrNonFiniteProbs reports an inference result that cannot cross the
// wire: encoding/json refuses NaN and ±Inf, so a degenerate model (or a
// SafeProbs fallback row) surfacing them must become a typed error —
// the server maps it to a clean 500 instead of failing mid-response
// with an opaque encoder error.
var ErrNonFiniteProbs = errors.New("serve: inference produced non-finite probabilities")

// Verdict is the service's response schema for one classified program —
// also emitted, one object per line, by `classify -json`, so offline and
// online verdicts are diffable.
type Verdict struct {
	// Name identifies the program: the request's name field or the
	// source file path. Empty when the caller supplied neither.
	Name string `json:"name,omitempty"`
	// Class is the predicted class index: 0 is always benign; under the
	// binary head 1 is malware, under the family head 1..K-1 are the
	// malware families in core.ClassName order.
	Class int `json:"class"`
	// Label is the binary detection verdict ("benign" or "malware") —
	// stable across head widths, so binary and family-head deployments
	// stay diffable on the detection axis.
	Label string `json:"label"`
	// Malicious is the binary verdict as a bool (class != 0); the
	// red-team harness scores evasion on it without re-deriving label
	// semantics.
	Malicious bool `json:"malicious"`
	// Family names the predicted class under a family-head model
	// ("benign", "mirai", ...). Empty under the binary head, which
	// cannot attribute a family.
	Family string `json:"family,omitempty"`
	// Confidence is the predicted class's probability.
	Confidence float64 `json:"confidence"`
	// Probs is the full class-probability vector — one entry per head
	// class, so its length tells the caller the serving head width.
	Probs []float64 `json:"probs"`
	// HasGraph reports whether this verdict came from a real program
	// with a CFG (true) or a raw feature-vector request (false). It is
	// an explicit marker — not omitempty inference — because a
	// single-block, zero-edge program's {0 blocks is impossible, but 1
	// block / 0 edges is real} summary must stay distinguishable from a
	// vector-only verdict for offline/online diffing.
	HasGraph bool `json:"has_graph"`
	// Blocks and Edges summarize the program's CFG; both zero (and
	// meaningless) when HasGraph is false. Always serialized — a
	// legitimate zero is a value, not an absence.
	Blocks int `json:"blocks"`
	Edges  int `json:"edges"`
	// Triage, when a similarity corpus is wired into the server, scores
	// the query's distance to its nearest labeled corpus neighbor.
	Triage *index.TriageInfo `json:"triage,omitempty"`
	// ModelVersion stamps the model snapshot whose weights produced this
	// verdict — across a hot swap, old and new verdicts stay
	// distinguishable in logs and replayed corpora. Offline tools
	// (cmd/classify) stamp the loaded model's version the same way.
	ModelVersion uint64 `json:"model_version"`
}

// Label returns the binary wire label for a class index. Class 0 is
// benign in every head width; any other class is a malware family, so
// it collapses to "malware".
func Label(class int) string {
	if class != nn.ClassBenign {
		return "malware"
	}
	return "benign"
}

// MakeVerdict assembles a Verdict from a probability vector, CFG
// summary counts (pass zeros and hasGraph=false for vector-only
// requests), and the version of the model that produced the probs.
// Non-finite probabilities are rejected with ErrNonFiniteProbs before
// they can poison the JSON encoder.
func MakeVerdict(name string, probs []float64, blocks, edges int, hasGraph bool, modelVersion uint64) (Verdict, error) {
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return Verdict{}, ErrNonFiniteProbs
		}
	}
	class := nn.Argmax(probs)
	family := ""
	if len(probs) > 2 {
		family = core.ClassName(class, len(probs))
	}
	return Verdict{
		Name:         name,
		Class:        class,
		Label:        Label(class),
		Malicious:    class != nn.ClassBenign,
		Family:       family,
		Confidence:   probs[class],
		Probs:        probs,
		HasGraph:     hasGraph,
		Blocks:       blocks,
		Edges:        edges,
		ModelVersion: modelVersion,
	}, nil
}
