package nn

import (
	"errors"
	"testing"
)

func TestTrainerLearnsBlobs(t *testing.T) {
	x, y := blobs(1, 200, 4)
	net := SmallMLP(2, 4, 16, 2)
	tr := &Trainer{Epochs: 30, BatchSize: 20, Seed: 3, Workers: 2}
	hist, err := tr.Fit(net, x, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(hist.Loss) == 0 {
		t.Fatal("empty history")
	}
	final := hist.Accuracy[len(hist.Accuracy)-1]
	if final < 0.95 {
		t.Errorf("final train accuracy %v, want >= 0.95", final)
	}
	// Loss must decrease substantially.
	if hist.Loss[len(hist.Loss)-1] > hist.Loss[0]/2 {
		t.Errorf("loss barely dropped: %v -> %v", hist.Loss[0], hist.Loss[len(hist.Loss)-1])
	}
}

func TestTrainerXOR(t *testing.T) {
	// XOR is not linearly separable; the hidden layer must do real work.
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	// Replicate so batches exist.
	var bx [][]float64
	var by []int
	for i := 0; i < 50; i++ {
		bx = append(bx, x...)
		by = append(by, y...)
	}
	net := SmallMLP(9, 2, 16, 2)
	tr := &Trainer{Epochs: 150, BatchSize: 40, Seed: 2, Workers: 1}
	hist, err := tr.Fit(net, bx, by)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := hist.Accuracy[len(hist.Accuracy)-1]; acc < 0.99 {
		t.Errorf("XOR accuracy %v, want ~1", acc)
	}
}

func TestTrainerErrors(t *testing.T) {
	net := SmallMLP(1, 2, 4, 2)
	tr := &Trainer{Epochs: 1}
	if _, err := tr.Fit(net, nil, nil); !errors.Is(err, ErrNoTrainData) {
		t.Errorf("Fit(empty) = %v, want ErrNoTrainData", err)
	}
	if _, err := tr.Fit(net, [][]float64{{1, 2}}, []int{5}); !errors.Is(err, ErrLabelRange) {
		t.Errorf("Fit(bad label) = %v, want ErrLabelRange", err)
	}
	if _, err := tr.Fit(net, [][]float64{{1, 2}}, []int{0, 1}); !errors.Is(err, ErrNoTrainData) {
		t.Errorf("Fit(mismatched lengths) = %v, want ErrNoTrainData", err)
	}
}

func TestTrainerDeterministic(t *testing.T) {
	x, y := blobs(5, 80, 3)
	run := func() []float64 {
		net := SmallMLP(7, 3, 8, 2)
		tr := &Trainer{Epochs: 5, BatchSize: 16, Seed: 9, Workers: 2}
		if _, err := tr.Fit(net, x, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		return net.WS().Logits([]float64{0.5, -0.5, 0.2})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic: %v vs %v", a, b)
		}
	}
}

func TestTrainerEarlyStop(t *testing.T) {
	x, y := blobs(6, 100, 3)
	net := SmallMLP(8, 3, 16, 2)
	tr := &Trainer{
		Epochs: 500, BatchSize: 20, Seed: 4, Workers: 1,
		EarlyStopLoss: 0.5, Patience: 2,
	}
	hist, err := tr.Fit(net, x, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if hist.Stopped == 0 {
		t.Error("early stopping never triggered on an easy problem")
	}
	if len(hist.Loss) >= 500 {
		t.Errorf("ran all %d epochs despite early stop", len(hist.Loss))
	}
}

func TestTrainerSGD(t *testing.T) {
	x, y := blobs(7, 120, 3)
	net := SmallMLP(9, 3, 16, 2)
	tr := &Trainer{
		Epochs: 60, BatchSize: 20, Seed: 5, Workers: 1,
		Optimizer: &SGD{LR: 0.05, Momentum: 0.9},
	}
	hist, err := tr.Fit(net, x, y)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := hist.Accuracy[len(hist.Accuracy)-1]; acc < 0.9 {
		t.Errorf("SGD accuracy %v, want >= 0.9", acc)
	}
}

func TestTrainerWorkerCountInvariance(t *testing.T) {
	// Gradients are reduced in fixed order, so 1 worker vs 2 workers
	// differ only through dropout streams; without dropout layers the
	// result must be bit-identical.
	x, y := blobs(8, 64, 3)
	run := func(workers int) []float64 {
		net := SmallMLP(10, 3, 8, 2) // no dropout in SmallMLP
		tr := &Trainer{Epochs: 3, BatchSize: 16, Seed: 11, Workers: workers}
		if _, err := tr.Fit(net, x, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		return net.WS().Logits([]float64{1, 2, 3})
	}
	a, b := run(1), run(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed dropout-free training: %v vs %v", a, b)
		}
	}
}

func TestAdamStateGrows(t *testing.T) {
	p := &Param{W: []float64{1}, G: []float64{0.5}}
	a := &Adam{LR: 0.1}
	before := p.W[0]
	a.Step([]*Param{p}, 1)
	if p.W[0] >= before {
		t.Errorf("Adam step did not descend: %v -> %v", before, p.W[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := &Param{W: []float64{0}, G: []float64{1}}
	s := &SGD{LR: 0.1, Momentum: 0.9}
	s.Step([]*Param{p}, 1)
	first := p.W[0]
	s.Step([]*Param{p}, 1)
	second := p.W[0] - first
	if second >= first {
		t.Errorf("momentum did not accelerate: step1 %v step2 %v", first, second)
	}
}
