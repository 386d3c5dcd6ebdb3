package dataset

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"advmal/internal/features"
	"advmal/internal/synth"
)

func corpus(t *testing.T) []*synth.Sample {
	t.Helper()
	samples, err := synth.Generate(synth.Config{Seed: 2, NumBenign: 25, NumMal: 60})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return samples
}

func buildDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, _, err := FromSamplesCtx(context.Background(), corpus(t), Options{Workers: 2})
	if err != nil {
		t.Fatalf("FromSamplesCtx: %v", err)
	}
	return ds
}

func TestFromSamplesPreservesOrderAndLabels(t *testing.T) {
	samples := corpus(t)
	ds, _, err := FromSamplesCtx(context.Background(), samples, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != len(samples) {
		t.Fatalf("Len = %d, want %d", ds.Len(), len(samples))
	}
	for i, r := range ds.Records {
		if r.Sample != samples[i] {
			t.Fatalf("record %d out of order", i)
		}
		wantLabel := LabelBenign
		if samples[i].Malicious {
			wantLabel = LabelMalware
		}
		if r.Label != wantLabel {
			t.Errorf("record %d label %d, want %d", i, r.Label, wantLabel)
		}
		if len(r.Raw) != features.NumFeatures {
			t.Errorf("record %d has %d features", i, len(r.Raw))
		}
	}
}

func TestFromSamplesWorkerInvariance(t *testing.T) {
	samples := corpus(t)
	a, _, err := FromSamplesCtx(context.Background(), samples, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FromSamplesCtx(context.Background(), samples, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		for j := range a.Records[i].Raw {
			if a.Records[i].Raw[j] != b.Records[i].Raw[j] {
				t.Fatalf("record %d feature %d differs across worker counts", i, j)
			}
		}
	}
}

func TestCountByLabel(t *testing.T) {
	ds := buildDataset(t)
	benign, malware := ds.CountByLabel()
	if benign != 25 || malware != 60 {
		t.Errorf("counts %d/%d, want 25/60", benign, malware)
	}
}

func TestSplitStratified(t *testing.T) {
	ds := buildDataset(t)
	train, test, err := ds.Split(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != ds.Len() {
		t.Errorf("split loses records: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	tb, tm := test.CountByLabel()
	if tb != 5 || tm != 12 { // 20% of 25 and of 60
		t.Errorf("test split %d/%d, want 5/12", tb, tm)
	}
	// No overlap.
	seen := map[*Record]bool{}
	for _, r := range train.Records {
		seen[r] = true
	}
	for _, r := range test.Records {
		if seen[r] {
			t.Fatal("record in both splits")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	ds := buildDataset(t)
	_, testA, err := ds.Split(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	_, testB, err := ds.Split(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if testA.Len() != testB.Len() {
		t.Fatal("same seed produced different split sizes")
	}
	for i := range testA.Records {
		if testA.Records[i] != testB.Records[i] {
			t.Fatal("same seed produced different splits")
		}
	}
	_, testC, err := ds.Split(0.25, 43)
	if err != nil {
		t.Fatal(err)
	}
	different := false
	for i := range testA.Records {
		if testA.Records[i] != testC.Records[i] {
			different = true
			break
		}
	}
	if !different {
		t.Error("different seeds produced identical splits")
	}
}

func TestSplitErrors(t *testing.T) {
	ds := &Dataset{}
	if _, _, err := ds.Split(0.2, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty split = %v, want ErrEmpty", err)
	}
	ds = buildDataset(t)
	for _, frac := range []float64{0, 1, -0.5, 2} {
		if _, _, err := ds.Split(frac, 1); !errors.Is(err, ErrBadFraction) {
			t.Errorf("Split(%v) = %v, want ErrBadFraction", frac, err)
		}
	}
}

func TestVectorsAndLabels(t *testing.T) {
	ds := buildDataset(t)
	vs := ds.RawVectors()
	ys := ds.Labels()
	if len(vs) != ds.Len() || len(ys) != ds.Len() {
		t.Fatal("wrong lengths")
	}
	for i := range vs {
		if &vs[i][0] != &ds.Records[i].Raw[0] {
			t.Fatal("RawVectors must not copy feature data")
		}
	}
}

func TestByLabel(t *testing.T) {
	ds := buildDataset(t)
	if got := len(ds.ByLabel(LabelBenign)); got != 25 {
		t.Errorf("ByLabel(benign) = %d, want 25", got)
	}
	if got := len(ds.ByLabel(LabelMalware)); got != 60 {
		t.Errorf("ByLabel(malware) = %d, want 60", got)
	}
}

func TestSaveLoadSamplesRoundTrip(t *testing.T) {
	samples := corpus(t)[:10]
	var buf bytes.Buffer
	if err := SaveSamples(&buf, samples); err != nil {
		t.Fatalf("SaveSamples: %v", err)
	}
	loaded, err := LoadSamples(&buf)
	if err != nil {
		t.Fatalf("LoadSamples: %v", err)
	}
	if len(loaded) != 10 {
		t.Fatalf("loaded %d, want 10", len(loaded))
	}
	for i, s := range loaded {
		if s.Name != samples[i].Name || s.Nodes != samples[i].Nodes {
			t.Errorf("sample %d metadata differs", i)
		}
		if len(s.Prog.Code) != len(samples[i].Prog.Code) {
			t.Errorf("sample %d program differs", i)
		}
	}
}

func TestLoadSamplesRejectsBadPrograms(t *testing.T) {
	if _, err := LoadSamples(strings.NewReader(`[{"name":"x"}]`)); err == nil {
		t.Error("LoadSamples accepted a sample without a program")
	}
	if _, err := LoadSamples(strings.NewReader(`not json`)); err == nil {
		t.Error("LoadSamples accepted garbage")
	}
	bad := `[{"name":"x","prog":{"name":"x","code":[{"op":14,"a":99}]}}]`
	if _, err := LoadSamples(strings.NewReader(bad)); err == nil {
		t.Error("LoadSamples accepted an invalid program")
	}
}

func TestSaveCSV(t *testing.T) {
	ds := buildDataset(t)
	var buf bytes.Buffer
	if err := ds.SaveCSV(&buf); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing CSV back: %v", err)
	}
	if len(rows) != ds.Len()+1 {
		t.Fatalf("CSV rows = %d, want %d", len(rows), ds.Len()+1)
	}
	wantCols := 2 + features.NumFeatures + 1
	for i, row := range rows {
		if len(row) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), wantCols)
		}
	}
	if rows[0][0] != "name" || rows[0][wantCols-1] != "label" {
		t.Errorf("header = %v", rows[0])
	}
}
