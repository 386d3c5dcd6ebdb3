package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/nn"
	"advmal/internal/serve"
)

// testDetector builds a detector with an untrained network and an
// identity-ish scaler — enough to exercise the full classify path
// without the cost of training.
func testDetector() *core.Model {
	min := make([]float64, features.NumFeatures)
	max := make([]float64, features.NumFeatures)
	for i := range max {
		max[i] = 1
	}
	return &core.Model{
		Scaler: &features.Scaler{Min: min, Max: max},
		Net:    nn.PaperCNN(0),
	}
}

func writeFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClassifyFilesMalformedInputs feeds hostile assembly through the
// real cmd/classify path: every malformed input must come back as an
// error naming the offending file — never a panic, never a hang.
func TestClassifyFilesMalformedInputs(t *testing.T) {
	det := testDetector()
	oversized := strings.Repeat("nop\n", ir.MaxProgramLen+1) + "ret\n"
	cases := []struct {
		name string
		text string
	}{
		{"garbage.asm", "this is not assembly at all\n%%%\n"},
		{"empty.asm", ""},
		{"noret.asm", "movi r0, 1\nmovi r1, 2\n"},
		{"badjump.asm", "jmp @999\nret\n"},
		{"badreg.asm", "movi r999, 1\nret\n"},
		{"oversized.asm", oversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, tc.name, tc.text)
			var sb strings.Builder
			err := classifyFiles(context.Background(), det, []string{path}, &sb)
			if err == nil {
				t.Fatalf("classifyFiles accepted malformed input %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error does not name the offending file: %v", err)
			}
		})
	}
}

// TestClassifyFilesValidInput checks the happy path still works with the
// same detector: a well-formed program classifies and prints a verdict.
func TestClassifyFilesValidInput(t *testing.T) {
	det := testDetector()
	path := writeFile(t, "ok.asm", "movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n")
	var sb strings.Builder
	if err := classifyFiles(context.Background(), det, []string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ok.asm") || !(strings.Contains(out, "benign") || strings.Contains(out, "MALWARE")) {
		t.Fatalf("unexpected verdict line: %q", out)
	}
}

// TestClassifyFilesJSON checks -json output: one serve.Verdict object
// per line, field-for-field consistent with the plain classify path.
func TestClassifyFilesJSON(t *testing.T) {
	det := testDetector()
	path := writeFile(t, "ok.asm", "movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n")
	var sb strings.Builder
	if err := classifyFilesJSON(context.Background(), det, []string{path, path}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 verdict lines, got %d: %q", len(lines), sb.String())
	}
	prog, err := ir.Parse("movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n")
	if err != nil {
		t.Fatal(err)
	}
	pred, probs, err := det.Classify(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		var v serve.Verdict
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line is not a verdict object: %q: %v", line, err)
		}
		if v.Name != path || v.Class != pred || v.Label != serve.Label(pred) {
			t.Fatalf("verdict %+v diverges from Classify (%d)", v, pred)
		}
		if v.Confidence != probs[pred] || len(v.Probs) != 2 {
			t.Fatalf("probabilities not faithful: %+v vs %v", v, probs)
		}
		if v.Blocks <= 0 {
			t.Fatalf("missing CFG summary: %+v", v)
		}
	}
}

// TestClassifyFilesCancelled checks a cancelled context stops the loop
// before any file is touched.
func TestClassifyFilesCancelled(t *testing.T) {
	det := testDetector()
	path := writeFile(t, "ok.asm", "ret\n")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := classifyFiles(ctx, det, []string{path}, &sb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("output written despite cancellation: %q", sb.String())
	}
}
