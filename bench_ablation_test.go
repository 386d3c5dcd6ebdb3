package advmal_test

import (
	"context"
	"testing"

	"advmal/internal/attacks"
	"advmal/internal/gea"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// BenchmarkAblation_GEAExitWiring compares the misclassification rate of
// the full GEA merge (shared entry AND exit) against the no-shared-exit
// variant on a sample of held-out malware, then measures the crafting
// cost of the ablated merge.
func BenchmarkAblation_GEAExitWiring(b *testing.B) {
	sys := trainedBenchSystem(b)
	p, err := sys.GEAPipeline(false)
	if err != nil {
		b.Fatal(err)
	}
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	var sharedFlips, ownFlips, total int
	var victims []*synth.Sample
	for _, s := range sys.TestSamples() {
		if s.Malicious {
			victims = append(victims, s)
		}
		if len(victims) == 30 {
			break
		}
	}
	for _, v := range victims {
		shared, own, err := p.CompareExitWiring(v.Prog, targets.Maximum.Prog)
		if err != nil {
			b.Fatal(err)
		}
		total++
		if shared == nn.ClassBenign {
			sharedFlips++
		}
		if own == nn.ClassBenign {
			ownFlips++
		}
	}
	b.Logf("exit-wiring ablation (max benign target, n=%d): shared-exit MR=%.1f%%, own-exits MR=%.1f%%",
		total, 100*float64(sharedFlips)/float64(total), 100*float64(ownFlips)/float64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gea.MergeNoSharedExit(victims[i%len(victims)].Prog, targets.Median.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_GEAMinimize measures the §VI future-work extension:
// finding the smallest target prefix that still flips the classifier.
func BenchmarkAblation_GEAMinimize(b *testing.B) {
	sys := trainedBenchSystem(b)
	p, err := sys.GEAPipeline(false)
	if err != nil {
		b.Fatal(err)
	}
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	var victim *synth.Sample
	for _, s := range sys.TestSamples() {
		if !s.Malicious {
			continue
		}
		pred, _, err := sys.Classify(s.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if pred == nn.ClassMalware {
			victim = s
			break
		}
	}
	if victim == nil {
		b.Skip("no correctly classified malware")
	}
	res, err := p.MinimizeTargetSize(victim.Prog, targets.Maximum.Prog, nn.ClassBenign, nil)
	if err != nil {
		b.Skip("full target does not flip this victim:", err)
	}
	b.Logf("minimized embedded target from %d to %d blocks", res.FullBlocks, res.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.MinimizeTargetSize(victim.Prog, targets.Maximum.Prog, nn.ClassBenign, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ClassWeights reports the FNR/FPR trade-off of
// class-weighted training on the imbalanced corpus (§IV-C1 discussion).
func BenchmarkAblation_ClassWeights(b *testing.B) {
	sys := trainedBenchSystem(b)
	run := func(weights []float64) nn.Metrics {
		net := nn.PaperCNN(99)
		tr := &nn.Trainer{
			Epochs: 25, BatchSize: 50, Seed: 9, Workers: 2,
			ClassWeights: weights,
		}
		if _, err := tr.FitCtx(context.Background(), net, sys.TrainX, sys.TrainY); err != nil {
			b.Fatal(err)
		}
		return nn.Evaluate(net, sys.TestX, sys.TestY)
	}
	plain := run(nil)
	weighted := run([]float64{5, 1}) // upweight the benign minority
	b.Logf("unweighted: %v", plain)
	b.Logf("benign x5:  %v", weighted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := nn.PaperCNN(int64(i))
		tr := &nn.Trainer{Epochs: 1, BatchSize: 50, Seed: int64(i), Workers: 2,
			ClassWeights: []float64{5, 1}}
		if _, err := tr.FitCtx(context.Background(), net, sys.TrainX, sys.TrainY); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Transfer reports black-box transfer rates (substitute
// model stealing + white-box crafting on the substitute) next to the
// white-box Table III rates.
func BenchmarkAblation_Transfer(b *testing.B) {
	sys := trainedBenchSystem(b)
	results, err := attacks.TransferEvaluateCtx(context.Background(), sys.Net,
		[]attacks.Attack{attacks.NewPGD(0, 0), attacks.NewFGSM(0), attacks.NewJSMA(0, 0)},
		sys.TrainX, sys.TestX, sys.TestY,
		attacks.TransferConfig{Seed: 3, MaxSamples: 25, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range results {
		b.Logf("transfer: %v", r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attacks.TrainSubstituteCtx(context.Background(), sys.Net, sys.TrainX[:200],
			attacks.TransferConfig{Seed: int64(i), Epochs: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Packing reports how UPX-style packing (CFG collapse)
// evades the detector (§VI) and measures the pack+classify pipeline.
func BenchmarkAblation_Packing(b *testing.B) {
	sys := trainedBenchSystem(b)
	res, err := sys.RunPackingExperiment()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%v", res)
	var victim *synth.Sample
	for _, s := range sys.TestSamples() {
		if s.Malicious {
			victim = s
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed, err := synth.Pack(victim.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sys.Classify(packed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_JSMARealization closes the paper's JSMA loop: the
// feature-space perturbation is realized by actually adding nodes and
// edges to the program, and the realized sample is re-classified.
func BenchmarkAblation_JSMARealization(b *testing.B) {
	sys := trainedBenchSystem(b)
	p, err := sys.GEAPipeline(false)
	if err != nil {
		b.Fatal(err)
	}
	var victims []*synth.Sample
	for _, s := range sys.TestSamples() {
		if !s.Malicious {
			continue
		}
		pred, _, err := sys.Classify(s.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if pred == nn.ClassMalware {
			victims = append(victims, s)
		}
		if len(victims) == 15 {
			break
		}
	}
	if len(victims) == 0 {
		b.Skip("no correctly classified malware")
	}
	tried, realized, flipped := 0, 0, 0
	for _, v := range victims {
		res, err := p.RealizeJSMA(v.Prog, nn.ClassMalware, nil)
		if err != nil {
			b.Fatal(err)
		}
		tried++
		if res.Realized {
			realized++
			if res.RealizedFlipped {
				flipped++
			}
		}
	}
	b.Logf("JSMA realization: %d tried, %d realized, %d flipped after graph-space realization",
		tried, realized, flipped)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RealizeJSMA(victims[i%len(victims)].Prog, nn.ClassMalware, nil); err != nil {
			b.Fatal(err)
		}
	}
}
