package serve

import (
	"fmt"

	"advmal/internal/core"
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
// changes, the engine builds a fresh inner engine from the NEW Model's
// workspace pool (and its int8 quantized tier when armed). The old
// Model's workspace is not returned anywhere — it drains and dies with
// its snapshot, which is exactly how the per-Model pools make mixed-
// version inference structurally impossible.
type handleEngine struct {
	h        *core.Handle
	quantize bool
	band     float64
	m        *Metrics

	cur    *core.Model // snapshot the inner engine is bound to
	inner  BatchEngine // scaled-space engine over cur's pool/tier
	scaled [][]float64 // per-engine scratch for scaled rows
}

func newHandleEngine(h *core.Handle, quantize bool, band float64, m *Metrics) *handleEngine {
	return &handleEngine{h: h, quantize: quantize, band: band, m: m}
}

// NewHandleEngine exposes the serving engine for external harnesses
// (benchmark/ traces the batcher through it); the server builds its
// own instances, one per batcher engine. Rows submitted through it must
// be RAW (unscaled) feature vectors.
func NewHandleEngine(h *core.Handle, quantize bool, band float64, m *Metrics) BatchEngine {
	return newHandleEngine(h, quantize, band, m)
}

// bind re-resolves the handle's current snapshot, rebuilding the inner
// engine when it changed since the last batch. One goroutine at a time,
// per the BatchEngine contract.
func (e *handleEngine) bind() BatchEngine {
	mdl := e.h.Current()
	if mdl == e.cur {
		return e.inner
	}
	var inner BatchEngine = mdl.AcquireWS()
	if e.quantize {
		// A candidate without calibration (or with an architecture the
		// int8 compiler cannot express) serves float-only: correctness
		// over throughput, and the canary gates keep such candidates out
		// of quantized fleets anyway.
		if qm, err := mdl.Quantized(); err == nil {
			inner = newTieredEngine(qm.NewWS(), inner, e.band, e.m)
		}
	}
	e.cur, e.inner = mdl, inner
	return inner
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
// per-engine scratch and runs the batch on the snapshot's engine.
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
