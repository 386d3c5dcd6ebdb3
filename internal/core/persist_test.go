package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"advmal/internal/features"
)

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	s := smallSystem(t)
	det, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same verdicts and probabilities on every test program.
	for _, sample := range s.TestSamples()[:20] {
		p1, probs1, err := det.Classify(sample.Prog)
		if err != nil {
			t.Fatal(err)
		}
		p2, probs2, err := restored.Classify(sample.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 || probs1[0] != probs2[0] {
			t.Fatalf("%s: verdicts diverge after reload", sample.Name)
		}
	}
}

func TestDetectorRequiresTraining(t *testing.T) {
	s := New(Config{NumBenign: 5, NumMal: 10})
	if _, err := s.Snapshot(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
}

func TestDetectorSaveIncomplete(t *testing.T) {
	d := &Model{}
	if err := d.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save accepted an incomplete detector")
	}
}

func TestLoadDetectorGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("junk")); err == nil {
		t.Error("LoadModel accepted garbage")
	}
}

func TestLoadDetectorBadScaler(t *testing.T) {
	s := smallSystem(t)
	det, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the scaler dimension by saving a detector with a truncated
	// scaler.
	bad := &Model{
		Scaler: &features.Scaler{Min: det.Scaler.Min[:5], Max: det.Scaler.Max[:5]},
		Net:    det.Net,
	}
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Error("LoadModel accepted a wrong-dimension scaler")
	}
}
