package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"advmal/internal/core"
	"advmal/internal/ir"
	"advmal/internal/serve"
)

// probTolerance is how far a served probability may sit from the
// in-process one: the batched kernels are bit-identical to the per-row
// ones, so anything above rounding noise is a wrong answer.
const probTolerance = 1e-9

// expected is the verdict the oracle computes in process for one body:
// core.LoadModel(det.gob) → ir.Parse → Model.Classify.
type expected struct {
	class  int
	probs  []float64
	blocks int
	edges  int
}

func expect(model *core.Model, text string) (expected, error) {
	prog, err := ir.Parse(text)
	if err != nil {
		return expected{}, fmt.Errorf("oracle: %w", err)
	}
	class, probs, err := model.Classify(prog)
	if err != nil {
		return expected{}, fmt.Errorf("oracle: %w", err)
	}
	cfg, err := ir.Disassemble(prog)
	if err != nil {
		return expected{}, fmt.Errorf("oracle: %w", err)
	}
	g := cfg.G()
	return expected{class: class, probs: probs, blocks: g.N(), edges: g.M()}, nil
}

// checkStructure is the check every response gets: 200, valid verdict
// JSON from a real program, probabilities that sum to one. It returns
// the decoded verdict for the full comparison.
func checkStructure(r reply) (serve.Verdict, error) {
	var v serve.Verdict
	if r.status != http.StatusOK {
		return v, fmt.Errorf("status %d: %.120s", r.status, r.resp)
	}
	if err := json.Unmarshal(r.resp, &v); err != nil {
		return v, fmt.Errorf("response is not a verdict: %w", err)
	}
	if !v.HasGraph {
		return v, fmt.Errorf("verdict has no graph")
	}
	if len(v.Probs) == 0 || v.Class < 0 || v.Class >= len(v.Probs) {
		return v, fmt.Errorf("class %d outside %d probabilities", v.Class, len(v.Probs))
	}
	var sum float64
	for _, p := range v.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return v, fmt.Errorf("probabilities sum to %g", sum)
	}
	return v, nil
}

// checkVerdict compares a served verdict with the oracle's, field by
// field.
func checkVerdict(v serve.Verdict, want expected, modelVersion uint64) error {
	switch {
	case v.Class != want.class:
		return fmt.Errorf("class %d, oracle %d", v.Class, want.class)
	case v.Malicious != (want.class != 0):
		return fmt.Errorf("malicious %v with class %d", v.Malicious, want.class)
	case v.Blocks != want.blocks || v.Edges != want.edges:
		return fmt.Errorf("cfg %d/%d, oracle %d/%d", v.Blocks, v.Edges, want.blocks, want.edges)
	case v.ModelVersion != modelVersion:
		return fmt.Errorf("model_version %d, oracle %d", v.ModelVersion, modelVersion)
	}
	return sameProbs(v.Probs, want.probs)
}

// sameProbs compares two probability vectors within probTolerance.
func sameProbs(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d probabilities, oracle %d", len(got), len(want))
	}
	for i, p := range got {
		if math.Abs(p-want[i]) > probTolerance {
			return fmt.Errorf("probs[%d] %g, oracle %g", i, p, want[i])
		}
	}
	return nil
}
