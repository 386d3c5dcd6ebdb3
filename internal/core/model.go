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
// trained CNN weights, the int8 calibration ranges, and a version stamp.
// Once a Model is published (returned by System.Snapshot, LoadModel, or
// installed into a Handle) nothing in it is mutated again — retraining
// produces a NEW Model and the serving stack swaps the Handle's pointer.
//
// A Model is safe for concurrent use: Classify borrows a per-call
// inference workspace from the Model's OWN pool of weight-sharing network
// clones, and the quantized engine is compiled once per Model. Because
// the pool and the quantized tier belong to the snapshot — not to a
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
	// Calib holds the per-boundary activation ranges observed on the
	// training split, enabling the int8 quantized inference tier (see
	// Quantized). Nil means no calibration pass ran — float-only serving.
	// Persisted alongside the weights: a saved model can serve the
	// quantized tier without access to the training corpus. Retraining
	// re-runs the calibration pass (System.Snapshot calibrates on the new
	// training matrix), so a swapped-in candidate never serves int8 with
	// ranges observed on another model's activations.
	Calib *nn.Calibration
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

	// Lazily compiled quantized model (see Quantized).
	quantOnce  sync.Once
	quantModel *nn.QuantModel
	quantErr   error
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

// Quantized returns the int8 quantized model compiled from this model's
// network and calibration, building it once on first call. It fails with
// nn.ErrNoCalibration when the model carries no activation ranges (an
// un-calibrated or pre-calibration save), and with
// nn.ErrQuantUnsupported for architectures the int8 compiler cannot
// express. The returned model is immutable and safe for concurrent use;
// serving workers derive per-goroutine workspaces from it with NewWS.
func (d *Model) Quantized() (*nn.QuantModel, error) {
	d.quantOnce.Do(func() {
		if d.Calib == nil {
			d.quantErr = fmt.Errorf("core: quantized: %w: model has no calibration ranges", nn.ErrNoCalibration)
			return
		}
		m, err := nn.Quantize(d.Net, d.Calib)
		if err != nil {
			d.quantErr = fmt.Errorf("core: quantized: %w", err)
			return
		}
		d.quantModel = m
	})
	return d.quantModel, d.quantErr
}

// Snapshot returns the system's deployable model snapshot, sharing the
// system's feature cache, stamped version 1. When the training design
// matrix is still in memory it also runs the activation-calibration pass
// over it, so the snapshot (and any save of it) can serve the int8
// quantized tier. Each call returns a fresh snapshot over the system's
// current weights; retraining the system and snapshotting again yields
// an independent Model whose calibration reflects the new weights.
func (s *System) Snapshot() (*Model, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	d := &Model{Version: 1, Scaler: s.Scaler, Net: s.Net, Extractor: s.Extractor,
		Classes: s.Net.NumClasses()}
	if len(s.TrainX) > 0 {
		calib, err := nn.Calibrate(s.Net, s.TrainX)
		if err != nil {
			return nil, fmt.Errorf("core: calibrate: %w", err)
		}
		d.Calib = calib
	}
	return d, nil
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
// weight snapshot produced by nn.Network.Save. CalibMin/CalibMax carry
// the quantization calibration ranges and Version the lineage stamp; gob
// tolerates their absence in both directions, so pre-split detector
// files load as version-1 models and new files load under pre-split
// code (which simply ignores the Version field).
type modelEnvelope struct {
	Min, Max           []float64
	Weights            []byte
	CalibMin, CalibMax []float64
	Version            uint64
	// Classes labels the softmax head width the weights were trained
	// with. Zero on pre-family files; the loader then trusts the width
	// it peeks from the weight blob itself. Non-zero values are
	// cross-checked against the blob — a mismatch (a relabeled or
	// spliced envelope) is rejected at load.
	Classes int
}

// Save writes the model (scaler ranges + CNN weights + calibration
// ranges when present + version stamp). The architecture is code
// (PaperCNN), so only parameters are persisted.
func (d *Model) Save(w io.Writer) error {
	if d.Scaler == nil || !d.Scaler.Fitted() || d.Net == nil {
		return fmt.Errorf("core: save: model incomplete")
	}
	var env modelEnvelope
	env.Version = d.Version
	env.Classes = d.Net.NumClasses()
	env.Min = append([]float64(nil), d.Scaler.Min...)
	env.Max = append([]float64(nil), d.Scaler.Max...)
	if d.Calib != nil {
		env.CalibMin = append([]float64(nil), d.Calib.Min...)
		env.CalibMax = append([]float64(nil), d.Calib.Max...)
	}
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
	if len(env.CalibMin) > 0 || len(env.CalibMax) > 0 {
		calib := &nn.Calibration{Min: env.CalibMin, Max: env.CalibMax}
		if !calib.Valid(len(d.Net.Layers())) {
			return nil, fmt.Errorf("core: load model: bad calibration ranges (%d min, %d max for %d layers)",
				len(env.CalibMin), len(env.CalibMax), len(d.Net.Layers()))
		}
		d.Calib = calib
	}
	return d, nil
}
