package serve

import (
	"fmt"

	"advmal/internal/core"
	"advmal/internal/nn"
)

// handleEngine is the BatchEngine the serving stack runs on after the
// Model/Handle split: the batcher owns Workers instances, each re-binding
// to the handle's current Model snapshot at each batch. Rows arrive RAW
// (unscaled) and are scaled with the pinned snapshot's own scaler right
// before inference, so scale + inference happen atomically under ONE
// model — during a hot swap every request is served entirely by either
// the old or the new snapshot, never a mix.
//
// Binding is per-batch and per-engine: when the snapshot pointer
// changes, the engine takes a float workspace from the NEW Model's pool.
// The old Model's workspace is not returned anywhere — it drains and dies
// with its snapshot, which is exactly how the per-Model pools make mixed-
// version inference structurally impossible.
type handleEngine struct {
	h *core.Handle

	cur    *core.Model   // snapshot the workspace is bound to
	inner  *nn.Workspace // scaled-space engine from cur's pool
	scaled [][]float64   // per-engine scratch for scaled rows
}

// NewHandleEngine exposes the serving engine for external harnesses
// (benchmark/ traces the batcher through it); the server builds its
// own instances, one per batcher engine. Rows submitted through it must
// be RAW (unscaled) feature vectors. The last three parameters are
// ignored; they are kept only because the frozen benchmark harness
// (benchmark/layers.go) still passes them.
func NewHandleEngine(h *core.Handle, _ bool, _ float64, _ *Metrics) BatchEngine {
	return &handleEngine{h: h}
}

// bind re-resolves the handle's current snapshot, taking a workspace from
// its pool when it changed since the last batch. One goroutine at a time,
// per the BatchEngine contract.
func (e *handleEngine) bind() *nn.Workspace {
	if mdl := e.h.Current(); mdl != e.cur {
		e.cur, e.inner = mdl, mdl.AcquireWS()
	}
	return e.inner
}

// ModelVersion reports the version of the snapshot the last batch ran
// on. The batcher reads it on the executing goroutine right after the
// batch executes, so the verdict's model_version names the exact
// weights that scored it.
func (e *handleEngine) ModelVersion() uint64 {
	if e.cur == nil {
		return 0
	}
	return e.cur.Version
}

// ProbsBatch scales the raw rows with the pinned snapshot's scaler into
// per-engine scratch and runs the batch on the snapshot's workspace.
func (e *handleEngine) ProbsBatch(xs [][]float64, dst [][]float64) [][]float64 {
	inner := e.bind()
	for len(e.scaled) < len(xs) {
		e.scaled = append(e.scaled, make([]float64, len(xs[0])))
	}
	for i, x := range xs {
		if err := e.cur.Scaler.TransformInto(e.scaled[i], x); err != nil {
			// Dimensions are validated at admission; anything else is a
			// poisoned row. Panic into the batcher's recover boundary so
			// the row fails alone via SafeProbs.
			panic(fmt.Errorf("serve: scale row %d: %w", i, err))
		}
	}
	return inner.ProbsBatch(e.scaled[:len(xs)], dst)
}

// SafeProbs is the recover-guarded per-row fallback over raw input.
func (e *handleEngine) SafeProbs(x []float64) ([]float64, error) {
	inner := e.bind()
	scaled, err := e.cur.Scaler.Transform(x)
	if err != nil {
		return nil, err
	}
	return inner.SafeProbs(scaled)
}
