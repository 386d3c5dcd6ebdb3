package nn

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	src := PaperCNN(21)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	dst := PaperCNN(99) // different init
	x := make([]float64, PaperInputLen)
	for i := range x {
		x[i] = float64(i) / PaperInputLen
	}
	before := append([]float64(nil), dst.WS().Logits(x)...)
	if err := dst.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	after := dst.WS().Logits(x)
	want := src.WS().Logits(x)
	same := true
	for i := range want {
		if after[i] != want[i] {
			t.Errorf("logit %d = %v, want %v after load", i, after[i], want[i])
		}
		if after[i] != before[i] {
			same = false
		}
	}
	if same {
		t.Error("Load appears to have been a no-op")
	}
}

func TestLoadArchitectureMismatch(t *testing.T) {
	src := SmallMLP(1, 4, 8, 2)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := PaperCNN(1)
	err := dst.Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Errorf("Load mismatched arch = %v, want missing-parameter error", err)
	}
}

func TestLoadSizeMismatch(t *testing.T) {
	src := SmallMLP(1, 4, 8, 2)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := SmallMLP(1, 4, 16, 2) // same names, different sizes
	err := dst.Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "values, want") {
		t.Errorf("Load mismatched sizes = %v, want size error", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	net := SmallMLP(1, 2, 2, 2)
	if err := net.Load(strings.NewReader("not gob")); err == nil {
		t.Error("Load accepted garbage input")
	}
}
