package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"advmal/internal/nn"
)

// accuracyOn computes plain accuracy of predict over a design matrix.
func accuracyOn(predict func([]float64) int, xs [][]float64, ys []int) float64 {
	hits := 0
	for i, x := range xs {
		if predict(x) == ys[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(xs))
}

// TestDetectorQuantizedAccuracyDelta is the Table I fidelity pin for the
// int8 tier: on the reduced corpus the quantized model's accuracy must
// track the float detector within 0.5pp on the held-out split and on
// the full corpus. The delta is deterministic (seeded corpus, exact
// integer arithmetic), so this is a regression pin, not a flaky bound.
func TestDetectorQuantizedAccuracyDelta(t *testing.T) {
	s := smallSystem(t)
	d, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d.Calib == nil {
		t.Fatal("Snapshot() with TrainX in memory must carry calibration")
	}
	qm, err := d.Quantized()
	if err != nil {
		t.Fatal(err)
	}
	qws := qm.NewWS()
	fws := d.AcquireWS()
	defer d.ReleaseWS(fws)

	allX := append(append([][]float64(nil), s.TrainX...), s.TestX...)
	allY := append(append([]int(nil), s.TrainY...), s.TestY...)
	for _, tc := range []struct {
		name string
		xs   [][]float64
		ys   []int
	}{
		{"test-split", s.TestX, s.TestY},
		{"full-corpus", allX, allY},
	} {
		fAcc := accuracyOn(fws.Predict, tc.xs, tc.ys)
		qAcc := accuracyOn(qws.Predict, tc.xs, tc.ys)
		delta := math.Abs(fAcc - qAcc)
		t.Logf("%s: float acc %.4f, quant acc %.4f, delta %.4fpp", tc.name, fAcc, qAcc, delta*100)
		if delta > 0.005 {
			t.Errorf("%s: quant accuracy delta %.4fpp exceeds 0.5pp", tc.name, delta*100)
		}
	}

	// Second Quantized call returns the same compiled model.
	qm2, err := d.Quantized()
	if err != nil || qm2 != qm {
		t.Errorf("Quantized not cached: %v %v", qm2, err)
	}
}

// TestDetectorCalibrationRoundTrip pins that Save/LoadModel carries
// the calibration ranges, and that the reloaded detector compiles a
// quantized model that predicts identically to the pre-save one.
func TestDetectorCalibrationRoundTrip(t *testing.T) {
	s := smallSystem(t)
	d, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Calib == nil {
		t.Fatal("loaded detector dropped calibration")
	}
	if len(loaded.Calib.Min) != len(d.Calib.Min) {
		t.Fatalf("calibration boundaries: %d, want %d", len(loaded.Calib.Min), len(d.Calib.Min))
	}
	for i := range d.Calib.Min {
		if loaded.Calib.Min[i] != d.Calib.Min[i] || loaded.Calib.Max[i] != d.Calib.Max[i] {
			t.Fatalf("calibration range %d drifted through the envelope", i)
		}
	}
	qm, err := d.Quantized()
	if err != nil {
		t.Fatal(err)
	}
	lqm, err := loaded.Quantized()
	if err != nil {
		t.Fatal(err)
	}
	a, b := qm.NewWS(), lqm.NewWS()
	for _, x := range s.TestX {
		pa, pb := a.Probs(x), b.Probs(x)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("reloaded quant model diverges: %v vs %v", pa, pb)
			}
		}
	}
}

// TestDetectorWithoutCalibration covers the two float-only paths: a
// detector built with no training matrix in memory, and a legacy
// envelope saved before calibration existed. Both must load/serve fine
// and fail Quantized with nn.ErrNoCalibration.
func TestDetectorWithoutCalibration(t *testing.T) {
	s := smallSystem(t)
	d := &Model{Scaler: s.Scaler, Net: s.Net, Extractor: s.Extractor}
	if _, err := d.Quantized(); !errors.Is(err, nn.ErrNoCalibration) {
		t.Errorf("Quantized without calibration = %v, want ErrNoCalibration", err)
	}

	// A pre-calibration save (Calib nil) round-trips to a detector that
	// still classifies but cannot serve the quantized tier.
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Calib != nil {
		t.Error("calibration materialised from nowhere")
	}
	if _, err := loaded.Quantized(); !errors.Is(err, nn.ErrNoCalibration) {
		t.Errorf("loaded Quantized = %v, want ErrNoCalibration", err)
	}
}

// TestLoadDetectorBadCalibration: an envelope with corrupt calibration
// ranges must be rejected, not loaded as a detector that later compiles
// a garbage quantized model.
func TestLoadDetectorBadCalibration(t *testing.T) {
	s := smallSystem(t)
	d, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(c *nn.Calibration)
	}{
		{"truncated", func(c *nn.Calibration) { c.Min = c.Min[:3] }},
		{"nan", func(c *nn.Calibration) { c.Max[2] = math.NaN() }},
		{"inverted", func(c *nn.Calibration) { c.Min[1], c.Max[1] = 5, -5 }},
	} {
		bad := &Model{Scaler: d.Scaler, Net: d.Net, Calib: &nn.Calibration{
			Min: append([]float64(nil), d.Calib.Min...),
			Max: append([]float64(nil), d.Calib.Max...),
		}}
		tc.mut(bad.Calib)
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(&buf); err == nil {
			t.Errorf("%s calibration loaded without error", tc.name)
		}
	}
}
