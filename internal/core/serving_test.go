package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"

	"advmal/internal/features"
)

// savedDetector returns a trained detector plus its serialized form.
func savedDetector(t *testing.T) (*Model, []byte) {
	t.Helper()
	det, err := smallSystem(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return det, buf.Bytes()
}

// TestLoadDetectorTruncated feeds LoadModel every prefix length of a
// valid model file (sampled densely near the interesting boundaries):
// all must return a descriptive error and a nil detector — never a panic
// and never a zero-valued detector that would crash at first Classify.
func TestLoadDetectorTruncated(t *testing.T) {
	_, blob := savedDetector(t)
	cuts := []int{0, 1, 2, 7, 16, 63}
	for n := 64; n < len(blob); n += len(blob) / 97 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		d, err := LoadModel(bytes.NewReader(blob[:n]))
		if err == nil {
			t.Fatalf("LoadModel accepted a model truncated to %d/%d bytes", n, len(blob))
		}
		if d != nil {
			t.Fatalf("truncation to %d bytes returned a non-nil detector alongside error %v", n, err)
		}
	}
}

// TestLoadDetectorCorrupt flips one byte at a spread of offsets in a
// valid model file. Each load must either fail with an error (and a nil
// detector) or — when the flip lands in a weight value — produce a
// detector that still classifies without panicking. gob is known to
// panic on some fabricated length prefixes; LoadModel must translate
// that into an error.
func TestLoadDetectorCorrupt(t *testing.T) {
	det, blob := savedDetector(t)
	prog := smallSystem(t).TestSamples()[0].Prog
	for off := 0; off < len(blob); off += len(blob) / 61 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0xff
		d, err := LoadModel(bytes.NewReader(mut))
		if err != nil {
			if d != nil {
				t.Fatalf("flip at %d: non-nil detector alongside error %v", off, err)
			}
			continue
		}
		// The flip hit a don't-care or value byte: the detector must
		// still be fully usable, even if its verdicts differ.
		if _, _, err := d.Classify(prog); err != nil {
			t.Fatalf("flip at %d: loaded detector cannot classify: %v", off, err)
		}
	}
	// And the pristine blob still round-trips.
	if _, err := LoadModel(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine blob failed to load: %v", err)
	}
	_ = det
}

// TestLoadDetectorBadEnvelope exercises envelopes that decode cleanly but
// describe an unusable detector: non-finite or inverted scaler ranges and
// missing weights must all be rejected with descriptive errors.
func TestLoadDetectorBadEnvelope(t *testing.T) {
	_, blob := savedDetector(t)
	var good modelEnvelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(e *modelEnvelope)
	}{
		{"nan min", func(e *modelEnvelope) { e.Min[3] = math.NaN() }},
		{"inf max", func(e *modelEnvelope) { e.Max[0] = math.Inf(1) }},
		{"inverted range", func(e *modelEnvelope) { e.Min[1], e.Max[1] = 10, -10 }},
		{"no weights", func(e *modelEnvelope) { e.Weights = nil }},
		{"truncated weights", func(e *modelEnvelope) { e.Weights = e.Weights[:len(e.Weights)/2] }},
	}
	for _, tc := range cases {
		env := modelEnvelope{
			Min:     append([]float64(nil), good.Min...),
			Max:     append([]float64(nil), good.Max...),
			Weights: append([]byte(nil), good.Weights...),
		}
		tc.mut(&env)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		d, err := LoadModel(&buf)
		if err == nil {
			t.Errorf("%s: LoadModel accepted the envelope", tc.name)
		}
		if d != nil {
			t.Errorf("%s: non-nil detector alongside error %v", tc.name, err)
		}
	}
}

// TestDetectorClassifyConcurrent pins the serving contract: concurrent
// Classify calls on one detector are race-clean (run under -race) and
// every goroutine sees exactly the verdict and probabilities a serial
// caller gets.
func TestDetectorClassifyConcurrent(t *testing.T) {
	s := smallSystem(t)
	det, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	samples := s.TestSamples()[:8]
	type ref struct {
		pred  int
		probs []float64
	}
	want := make([]ref, len(samples))
	for i, sm := range samples {
		pred, probs, err := det.Classify(sm.Prog)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref{pred, probs}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 12; iter++ {
				i := (g + iter) % len(samples)
				pred, probs, err := det.Classify(samples[i].Prog)
				if err != nil {
					errc <- err
					return
				}
				if pred != want[i].pred {
					t.Errorf("goroutine %d: sample %d pred %d, want %d", g, i, pred, want[i].pred)
					return
				}
				for c := range probs {
					if probs[c] != want[i].probs[c] {
						t.Errorf("goroutine %d: sample %d probs diverge under concurrency", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestDetectorVectorize checks the serving front half: the vector matches
// the Classify pipeline's and the CFG summary counts are real.
func TestDetectorVectorize(t *testing.T) {
	s := smallSystem(t)
	det, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sm := s.TestSamples()[0]
	vec, blocks, edges, err := det.Vectorize(sm.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != features.NumFeatures {
		t.Fatalf("vector has %d features, want %d", len(vec), features.NumFeatures)
	}
	if blocks <= 0 || edges < 0 {
		t.Fatalf("implausible CFG summary: %d blocks, %d edges", blocks, edges)
	}
	w := det.AcquireWS()
	probs, err := w.SafeProbs(vec)
	det.ReleaseWS(w)
	if err != nil {
		t.Fatal(err)
	}
	pred, probsRef, err := det.Classify(sm.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for c := range probs {
		if probs[c] != probsRef[c] {
			t.Fatal("Vectorize + SafeProbs diverges from Classify")
		}
	}
	_ = pred
}
