package gea

import (
	"context"
	"strings"
	"sync"
	"testing"

	"advmal/internal/dataset"
	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

var (
	pipeOnce    sync.Once
	pipeShared  *Pipeline
	pipeSamples []*synth.Sample
)

// testPipeline builds a small trained detector once and shares it.
func testPipeline(t *testing.T) (*Pipeline, []*synth.Sample) {
	t.Helper()
	pipeOnce.Do(func() {
		samples, err := synth.Generate(synth.Config{Seed: 21, NumBenign: 40, NumMal: 120})
		if err != nil {
			panic(err)
		}
		ds, _, err := dataset.FromSamplesCtx(context.Background(), samples, dataset.Options{})
		if err != nil {
			panic(err)
		}
		scaler := &features.Scaler{}
		if err := scaler.Fit(ds.RawVectors()); err != nil {
			panic(err)
		}
		x, err := scaler.TransformAll(ds.RawVectors())
		if err != nil {
			panic(err)
		}
		xs := make([][]float64, len(x))
		for i := range x {
			xs[i] = x[i]
		}
		net := nn.PaperCNN(3)
		tr := &nn.Trainer{Epochs: 15, BatchSize: 32, Seed: 4, Workers: 2}
		if _, err := tr.FitCtx(context.Background(), net, xs, ds.Labels()); err != nil {
			panic(err)
		}
		pipeShared = &Pipeline{Net: net, Scaler: scaler, Verify: true}
		pipeSamples = samples
	})
	return pipeShared, pipeSamples
}

func TestRunTarget(t *testing.T) {
	p, samples := testPipeline(t)
	var origs []*synth.Sample
	for _, s := range samples {
		if s.Malicious {
			origs = append(origs, s)
		}
		if len(origs) == 25 {
			break
		}
	}
	targets, err := SelectBySize(samples, false)
	if err != nil {
		t.Fatal(err)
	}
	row, err := p.RunTargetCtx(context.Background(), origs, targets.Maximum, nn.ClassBenign)
	if err != nil {
		t.Fatal(err)
	}
	if row.Total != len(origs) {
		t.Errorf("Total = %d, want %d", row.Total, len(origs))
	}
	if row.Verified != row.Total {
		t.Errorf("Verified = %d, want %d (all GEA samples preserve functionality)",
			row.Verified, row.Total)
	}
	if row.MR < 0 || row.MR > 1 {
		t.Errorf("MR = %v", row.MR)
	}
	if row.AvgCT <= 0 {
		t.Errorf("AvgCT = %v", row.AvgCT)
	}
	if row.TargetNodes != targets.Maximum.Nodes {
		t.Errorf("TargetNodes = %d, want %d", row.TargetNodes, targets.Maximum.Nodes)
	}
}

func TestRunSizeExperimentShape(t *testing.T) {
	p, samples := testPipeline(t)
	rows, err := p.RunSizeExperimentCtx(context.Background(), samples[:60], samples, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (min/median/max)", len(rows))
	}
	wantLabels := []SizeLabel{SizeMinimum, SizeMedian, SizeMaximum}
	for i, r := range rows {
		if r.Label != wantLabels[i] {
			t.Errorf("row %d label = %q, want %q", i, r.Label, wantLabels[i])
		}
	}
	if rows[0].TargetNodes > rows[1].TargetNodes || rows[1].TargetNodes > rows[2].TargetNodes {
		t.Errorf("target sizes not ascending: %d, %d, %d",
			rows[0].TargetNodes, rows[1].TargetNodes, rows[2].TargetNodes)
	}
}

func TestRunSizeExperimentNoOrigs(t *testing.T) {
	p, samples := testPipeline(t)
	var benignOnly []*synth.Sample
	for _, s := range samples {
		if !s.Malicious {
			benignOnly = append(benignOnly, s)
		}
	}
	// Malware->benign needs malware originals; passing only benign
	// samples must fail cleanly.
	if _, err := p.RunSizeExperimentCtx(context.Background(), benignOnly, samples, false); err == nil {
		t.Error("RunSizeExperimentCtx accepted an empty original pool")
	}
}

func TestRunFixedNodesExperimentShape(t *testing.T) {
	p, samples := testPipeline(t)
	rows, err := p.RunFixedNodesExperimentCtx(context.Background(), samples[:60], samples, true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 2 groups x 2 targets", len(rows))
	}
	// Within a group the node count is fixed.
	if rows[0].TargetNodes != rows[1].TargetNodes {
		t.Errorf("group 1 node counts differ: %d vs %d", rows[0].TargetNodes, rows[1].TargetNodes)
	}
	if rows[0].TargetEdges == rows[1].TargetEdges {
		t.Error("group 1 edge counts identical; want distinct")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Label: SizeMedian, TargetNodes: 24, TargetEdges: 30, MR: 0.9548, Total: 100}
	s := r.String()
	for _, want := range []string{"Median", "24", "95.48"} {
		if !strings.Contains(s, want) {
			t.Errorf("Row.String() = %q missing %q", s, want)
		}
	}
}
