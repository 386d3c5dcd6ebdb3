package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"advmal/internal/features"
	"advmal/internal/nn"
)

// legacyEnvelope is the pre-split on-disk format: scaler ranges plus the
// weight blob, nothing else. gob matches struct fields by name, so bytes
// written under this shape decode into the current modelEnvelope (the
// extra fields stay zero) and vice versa (the extra fields are ignored).
// These tests pin that compatibility in both directions.
type legacyEnvelope struct {
	Min, Max []float64
	Weights  []byte
}

// legacyBlob serializes det the way the pre-split encoder did.
func legacyBlob(t *testing.T, det *Model) []byte {
	t.Helper()
	var weights bytes.Buffer
	if err := det.Net.Save(&weights); err != nil {
		t.Fatal(err)
	}
	env := legacyEnvelope{Min: det.Scaler.Min, Max: det.Scaler.Max, Weights: weights.Bytes()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadModelLegacyEnvelope loads a pre-split detector file: no
// version stamp, no calibration. It must come back as version 1 of its
// lineage and classify bitwise-identically to the model that wrote it.
func TestLoadModelLegacyEnvelope(t *testing.T) {
	det, _ := savedDetector(t)
	prog := smallSystem(t).TestSamples()[0].Prog

	m, err := LoadModel(bytes.NewReader(legacyBlob(t, det)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 {
		t.Fatalf("legacy file loaded as version %d, want 1", m.Version)
	}
	_, want, err := det.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := m.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesOracle(got, [][]float64{want}) {
		t.Fatalf("legacy-loaded model diverged: got %v, want %v", got, want)
	}
}

// TestSaveReadableByLegacyDecoder pins the reverse direction: a file
// written by the current Save decodes under the pre-split envelope shape
// (old code ignores the fields it does not know), and a model rebuilt
// from those fields classifies identically.
func TestSaveReadableByLegacyDecoder(t *testing.T) {
	det, blob := savedDetector(t)
	prog := smallSystem(t).TestSamples()[0].Prog

	var env legacyEnvelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		t.Fatalf("pre-split decoder rejected a current model file: %v", err)
	}
	if len(env.Min) != features.NumFeatures || len(env.Max) != features.NumFeatures {
		t.Fatalf("legacy decode recovered %d/%d scaler ranges, want %d",
			len(env.Min), len(env.Max), features.NumFeatures)
	}
	old := &Model{
		Scaler: &features.Scaler{Min: env.Min, Max: env.Max},
		Net:    nn.PaperCNN(0),
	}
	if err := old.Net.Load(bytes.NewReader(env.Weights)); err != nil {
		t.Fatal(err)
	}
	_, want, err := det.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := old.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesOracle(got, [][]float64{want}) {
		t.Fatalf("legacy-shape rebuild diverged: got %v, want %v", got, want)
	}
}

// calibratedEnvelope is the on-disk format as written while models still
// carried the int8 tier's activation ranges: one min/max per layer
// boundary beside the current fields. Nothing reads those ranges any
// more, so files in this shape must load whatever the ranges hold.
type calibratedEnvelope struct {
	Min, Max           []float64
	Weights            []byte
	CalibMin, CalibMax []float64
	Version            uint64
	Classes            int
}

// TestLoadModelCalibratedEnvelope loads files written with calibration
// ranges — valid ones, and the truncated, non-finite and inverted ranges
// the loader used to reject. Each must keep its version stamp and head
// width and classify bitwise-identically to the model that wrote it.
func TestLoadModelCalibratedEnvelope(t *testing.T) {
	det, _ := savedDetector(t)
	prog := smallSystem(t).TestSamples()[0].Prog
	_, want, err := det.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := det.Net.Save(&weights); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(lo, hi []float64) ([]float64, []float64)
	}{
		{"valid", func(lo, hi []float64) ([]float64, []float64) { return lo, hi }},
		{"truncated", func(lo, hi []float64) ([]float64, []float64) { return lo[:3], hi }},
		{"nan", func(lo, hi []float64) ([]float64, []float64) { hi[2] = math.NaN(); return lo, hi }},
		{"inverted", func(lo, hi []float64) ([]float64, []float64) { lo[1], hi[1] = 5, -5; return lo, hi }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boundaries := len(det.Net.Layers()) + 1
			lo, hi := make([]float64, boundaries), make([]float64, boundaries)
			for i := range lo {
				lo[i], hi[i] = -float64(i+1), float64(i+1)
			}
			env := calibratedEnvelope{
				Min: det.Scaler.Min, Max: det.Scaler.Max, Weights: weights.Bytes(),
				Version: 7, Classes: det.Net.NumClasses(),
			}
			env.CalibMin, env.CalibMax = tc.mut(lo, hi)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(env); err != nil {
				t.Fatal(err)
			}
			m, err := LoadModel(&buf)
			if err != nil {
				t.Fatalf("calibrated file rejected: %v", err)
			}
			if m.Version != 7 || m.Classes != env.Classes {
				t.Fatalf("loaded version %d, classes %d; want 7, %d", m.Version, m.Classes, env.Classes)
			}
			_, got, err := m.Classify(prog)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesOracle(got, [][]float64{want}) {
				t.Fatalf("calibrated-file model diverged: got %v, want %v", got, want)
			}
		})
	}
}

// TestSaveReadableByCalibratedDecoder pins the reverse direction: a file
// written by the current Save decodes under the calibrated envelope shape
// with its version stamp and head width intact and no ranges.
func TestSaveReadableByCalibratedDecoder(t *testing.T) {
	det, blob := savedDetector(t)
	var env calibratedEnvelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		t.Fatalf("calibrated-shape decoder rejected a current model file: %v", err)
	}
	if env.Version != det.Version || env.Classes != det.Net.NumClasses() || len(env.Weights) == 0 {
		t.Fatalf("decoded version %d, classes %d, %d weight bytes; want %d, %d, non-empty",
			env.Version, env.Classes, len(env.Weights), det.Version, det.Net.NumClasses())
	}
	if env.CalibMin != nil || env.CalibMax != nil {
		t.Fatal("current file carries calibration ranges")
	}
}

// TestLoadModelLegacyCorrupt truncates and bit-flips legacy-format bytes:
// every load must fail with an error and a nil model, exactly as for
// current-format files.
func TestLoadModelLegacyCorrupt(t *testing.T) {
	det, _ := savedDetector(t)
	blob := legacyBlob(t, det)

	for _, n := range []int{0, 1, 8, len(blob) / 3, len(blob) - 1} {
		m, err := LoadModel(bytes.NewReader(blob[:n]))
		if err == nil {
			t.Fatalf("LoadModel accepted a legacy file truncated to %d/%d bytes", n, len(blob))
		}
		if m != nil {
			t.Fatalf("truncation to %d bytes returned a non-nil model alongside error %v", n, err)
		}
	}

	// A flipped byte in the envelope header must be a clean error too.
	mut := append([]byte(nil), blob...)
	mut[3] ^= 0xff
	if m, err := LoadModel(bytes.NewReader(mut)); err == nil || m != nil {
		t.Fatalf("corrupt legacy header: model %v, err %v — want nil model and an error", m, err)
	}
}
