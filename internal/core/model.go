package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/nn"
)

// Model is the immutable deployable snapshot: the fitted scaler, the
// trained CNN weights, and a version stamp. Once a Model is published
// (returned by System.Snapshot, LoadModel, or installed into a Handle)
// nothing in it is mutated again — retraining produces a NEW Model and the
// serving stack swaps the Handle's pointer.
//
// A Model is safe for concurrent use: Classify borrows a per-call
// inference workspace from the Model's OWN pool of weight-sharing network
// clones. Because the pool belongs to the snapshot — not to a
// process-wide singleton — a hot swap re-pools by construction: workers
// that re-bind to the new Model acquire workspaces cloned from the new
// weights, while in-flight batches finish on the old Model's pool. Mixed-
// version inference is structurally impossible, not merely forbidden.
type Model struct {
	// Version is the serving lineage stamp. System.Snapshot and LoadModel
	// stamp fresh snapshots 1; Handle.Swap restamps the incoming Model to
	// strictly exceed the one it replaces. It is written exactly once,
	// before the Model becomes visible to any other goroutine.
	Version uint64
	Scaler  *features.Scaler
	Net     *nn.Network
	// Classes is the softmax head width this model was trained with:
	// 2 for the paper's binary detector, NumFamilyClasses for the
	// 5-way family head. Persisted in the envelope and cross-checked
	// against the decoded weights at load time, so a head-width
	// mismatch is a descriptive load error instead of a failure deep
	// inside inference.
	Classes int
	// Extractor serves classification through the fused sweep engine and
	// its two-level cache (program text, then GraphKey); nil uses
	// features.Shared. Not persisted — the cache is derived state. Feature
	// extraction is model-independent, so a retrained candidate may share
	// the live Model's extractor and keep the warm cache across a swap.
	Extractor *features.Extractor

	// ws pools inference workspaces over weight-sharing clones of Net.
	// Lazily populated; the zero value is ready to use. Per-Model by
	// design: see the stale-workspace hazard note on the type.
	ws sync.Pool
}

// AcquireWS borrows an inference workspace over a weight-sharing clone
// of this model's network. Callers that classify many vectors (the
// serving batcher, the bench harness) hold one per worker; everyone else
// goes through Classify, which borrows per call. Pair with ReleaseWS.
// Workspaces belong to this Model: after a Handle swap, the old Model's
// outstanding workspaces drain and die with it.
func (d *Model) AcquireWS() *nn.Workspace {
	if v := d.ws.Get(); v != nil {
		return v.(*nn.Workspace)
	}
	return d.Net.CloneShared().WS()
}

// ReleaseWS returns a workspace obtained from AcquireWS to this model's
// pool.
func (d *Model) ReleaseWS(w *nn.Workspace) { d.ws.Put(w) }

// Snapshot returns the system's deployable model snapshot over its
// current scaler and weights, sharing the system's feature cache, stamped
// version 1. It reads nothing of the training split, so its cost does not
// grow with the corpus. Each call returns a fresh Model.
func (s *System) Snapshot() (*Model, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	return &Model{Version: 1, Scaler: s.Scaler, Net: s.Net, Extractor: s.Extractor,
		Classes: s.Net.NumClasses()}, nil
}

// Classify runs the full pipeline on one untrusted program. Faults in
// any stage — including a panic inside a network layer — come back as
// errors, never crashes. Concurrent calls are race-clean: each borrows
// its own pooled workspace for the inference step, and the workspace
// pool belongs to this snapshot, so every result is attributable to
// exactly this Model's weights.
func (d *Model) Classify(prog *ir.Program) (int, []float64, error) {
	scaled, _, _, err := d.Vectorize(prog)
	if err != nil {
		return 0, nil, err
	}
	w := d.AcquireWS()
	probs, err := w.SafeProbs(scaled)
	d.ReleaseWS(w)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	return nn.Argmax(probs), probs, nil
}

// Vectorize runs the pre-inference pipeline on one untrusted program —
// disassemble, extract CFG features (through the cache), scale — and
// returns the network-ready vector plus the CFG's basic-block and edge
// counts for reporting. It is the shared front half of Classify and the
// offline classify command. The serving path extracts raw features from
// the request text (Extractor.ExtractText) instead and defers scaling
// into the batch engine, so that scale + inference happen atomically
// under one pinned snapshot during a hot swap.
func (d *Model) Vectorize(prog *ir.Program) (vec []float64, blocks, edges int, err error) {
	raw, blocks, edges, err := d.RawFeatures(prog)
	if err != nil {
		return nil, 0, 0, err
	}
	scaled, err := d.Scaler.Transform(raw)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: %w", err)
	}
	return scaled, blocks, edges, nil
}

// RawFeatures runs the model-independent front half of the pipeline —
// disassemble and extract the Table II features through the cache —
// without scaling. Extraction does not depend on the weights or the
// scaler, so the serving layer vectorizes once and lets each batch
// engine scale under whatever snapshot it is pinned to.
func (d *Model) RawFeatures(prog *ir.Program) (raw []float64, blocks, edges int, err error) {
	cfg, err := ir.Disassemble(prog)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: %w", err)
	}
	g := cfg.G()
	raw = d.Extractor.Extract(g)
	return raw, g.N(), g.M(), nil
}

// modelEnvelope is the on-disk format: the scaler ranges plus the gob
// weight snapshot produced by nn.Network.Save, and Version the lineage
// stamp. gob matches fields by name and skips what the destination
// lacks, in both directions: pre-split detector files load as version-1
// models, new files load under pre-split code (which ignores Version),
// and files that still carry the activation ranges of the retired int8
// tier (CalibMin/CalibMax) load with those ranges unread.
type modelEnvelope struct {
	Min, Max []float64
	Weights  []byte
	Version  uint64
	// Classes labels the softmax head width the weights were trained
	// with. Zero on pre-family files; the loader then trusts the width
	// it peeks from the weight blob itself. Non-zero values are
	// cross-checked against the blob — a mismatch (a relabeled or
	// spliced envelope) is rejected at load.
	Classes int
}

// Save writes the model (scaler ranges + CNN weights + version stamp +
// head width). The architecture is code (PaperCNN), so only parameters
// are persisted.
func (d *Model) Save(w io.Writer) error {
	if d.Scaler == nil || !d.Scaler.Fitted() || d.Net == nil {
		return fmt.Errorf("core: save: model incomplete")
	}
	var env modelEnvelope
	env.Version = d.Version
	env.Classes = d.Net.NumClasses()
	env.Min = append([]float64(nil), d.Scaler.Min...)
	env.Max = append([]float64(nil), d.Scaler.Max...)
	var buf bytes.Buffer
	if err := d.Net.Save(&buf); err != nil {
		return err
	}
	env.Weights = buf.Bytes()
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModel restores a model written by Save (or by the pre-split
// Detector encoder) into a fresh PaperCNN. Pre-split files carry no
// version stamp and load as version 1.
//
// It is hardened for serving: a corrupt, truncated, or trailing-garbage
// model file comes back as a descriptive error, never a decode panic or a
// silently zero-valued model. Every failure path returns a nil model —
// a load error can never hand back a partially-initialised artefact.
func LoadModel(r io.Reader) (d *Model, err error) {
	// encoding/gob panics (rather than erroring) on some corrupt streams,
	// e.g. absurd length prefixes fabricated by a bit flip; serving must
	// see those as load errors too.
	defer func() {
		if rec := recover(); rec != nil {
			d, err = nil, fmt.Errorf("core: load model: corrupt model file: %v", rec)
		}
	}()
	var env modelEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if len(env.Min) != features.NumFeatures || len(env.Max) != features.NumFeatures {
		return nil, fmt.Errorf("core: load model: scaler has %d/%d ranges, want %d",
			len(env.Min), len(env.Max), features.NumFeatures)
	}
	for i := range env.Min {
		lo, hi := env.Min[i], env.Max[i]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("core: load model: scaler range %d is not finite (min %v, max %v)", i, lo, hi)
		}
		if hi < lo {
			return nil, fmt.Errorf("core: load model: scaler range %d inverted (min %v > max %v)", i, lo, hi)
		}
	}
	if len(env.Weights) == 0 {
		return nil, fmt.Errorf("core: load model: envelope has no weights")
	}
	version := env.Version
	if version == 0 {
		version = 1 // pre-split file: first of its lineage
	}
	// Resolve the head width before building the network. The decoded
	// weights are the ground truth (the blob's output-layer bias length);
	// the envelope's class label, when present, must agree with it. A
	// mismatch means the file was relabeled or spliced — rejecting it here
	// turns a would-be inference-time failure (a 2-class head served
	// against 5-way labels, or vice versa) into a descriptive load error.
	classes, err := nn.SnapshotClasses(bytes.NewReader(env.Weights))
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if env.Classes != 0 && env.Classes != classes {
		return nil, fmt.Errorf(
			"core: load model: envelope labels %d classes but decoded head is %d wide — refusing mismatched model file",
			env.Classes, classes)
	}
	if classes != nn.PaperClasses && classes != NumFamilyClasses {
		return nil, fmt.Errorf("core: load model: unsupported head width %d (want %d or %d)",
			classes, nn.PaperClasses, NumFamilyClasses)
	}
	d = &Model{
		Version: version,
		Classes: classes,
		Scaler:  &features.Scaler{Min: env.Min, Max: env.Max},
		Net:     nn.PaperCNNClasses(0, classes),
	}
	if err := d.Net.Load(bytes.NewReader(env.Weights)); err != nil {
		return nil, fmt.Errorf("core: load model: weights: %w", err)
	}
	return d, nil
}
