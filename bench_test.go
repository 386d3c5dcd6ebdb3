// Package advmal_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation:
//
//	BenchmarkTableI_*    corpus generation (Table I)
//	BenchmarkTableII_*   feature extraction (Table II / the 23 features)
//	BenchmarkFig5_*      detector forward pass and training (§IV-C1, Fig. 5)
//	BenchmarkTableIII_*  one bench per generic attack (Table III columns)
//	BenchmarkTableIV_*   GEA malware->benign by target size
//	BenchmarkTableV_*    GEA benign->malware by target size
//	BenchmarkTableVI_*   GEA malware->benign at fixed node counts
//	BenchmarkTableVII_*  GEA benign->malware at fixed node counts
//	BenchmarkFig2to4_*   the CFG figures pipeline (disassemble + merge)
//	BenchmarkAblation_*  substrate ablations called out in DESIGN.md
//
// The per-table rows themselves are printed via b.Log (visible with
// `go test -bench . -v`) from a shared reduced-size trained system; the
// full-fidelity numbers come from `go run ./cmd/repro` and are recorded
// in EXPERIMENTS.md.
package advmal_test

import (
	"sync"
	"testing"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/ir"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// benchSystem is the shared reduced-size trained pipeline for attack and
// GEA benchmarks (the full Table I corpus with 200 epochs takes ~10
// minutes to train, which does not belong inside b.N loops).
var (
	benchOnce sync.Once
	benchSys  *core.System
)

func trainedBenchSystem(b *testing.B) *core.System {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.NumBenign = 100
		cfg.NumMal = 500
		cfg.Epochs = 60
		cfg.BatchSize = 50
		benchSys = core.New(cfg)
		if err := benchSys.BuildCorpus(); err != nil {
			panic(err)
		}
		if _, err := benchSys.Fit(); err != nil {
			panic(err)
		}
	})
	return benchSys
}

// BenchmarkTableI_CorpusGeneration measures generating the full Table I
// corpus: 276 benign + 2,281 malicious programs, disassembled and
// halting-checked.
func BenchmarkTableI_CorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples, err := synth.Generate(synth.Config{Seed: int64(i + 1), NumBenign: 276, NumMal: 2281})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benign, mal := 0, 0
			for _, s := range samples {
				if s.Malicious {
					mal++
				} else {
					benign++
				}
			}
			b.Logf("Table I: benign=%d (%.2f%%) malicious=%d (%.2f%%) total=%d",
				benign, 100*float64(benign)/float64(len(samples)),
				mal, 100*float64(mal)/float64(len(samples)), len(samples))
		}
	}
}

// BenchmarkTableII_FeatureExtraction measures extracting the 23 Table II
// features from one mid-sized CFG.
func BenchmarkTableII_FeatureExtraction(b *testing.B) {
	sys := trainedBenchSystem(b)
	// Use the median benign sample's CFG.
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := ir.Disassemble(targets.Median.Prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("Table II: 7 groups, %d features on a %d-node CFG", features.NumFeatures, cfg.G().N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := features.Extract(cfg.G())
		if len(v) != features.NumFeatures {
			b.Fatal("bad vector")
		}
	}
}

// BenchmarkTableII_FeatureExtractionNaive is the seed four-traversal
// baseline kept for comparison against the fused single-sweep Extract
// above.
func BenchmarkTableII_FeatureExtractionNaive(b *testing.B) {
	sys := trainedBenchSystem(b)
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := ir.Disassemble(targets.Median.Prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := features.ExtractNaive(cfg.G())
		if len(v) != features.NumFeatures {
			b.Fatal("bad vector")
		}
	}
}

// BenchmarkTableII_FeatureExtractionCached measures the content-keyed
// cache hit path every repeat extraction (GEA minimize probes, corpus
// rebuilds) takes.
func BenchmarkTableII_FeatureExtractionCached(b *testing.B) {
	sys := trainedBenchSystem(b)
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := ir.Disassemble(targets.Median.Prog)
	if err != nil {
		b.Fatal(err)
	}
	e := features.NewExtractor(0)
	e.Extract(cfg.G())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := e.Extract(cfg.G())
		if len(v) != features.NumFeatures {
			b.Fatal("bad vector")
		}
	}
}

// BenchmarkFig5_Forward measures one detector forward pass (the unit of
// every attack's inner loop).
func BenchmarkFig5_Forward(b *testing.B) {
	sys := trainedBenchSystem(b)
	x := sys.TestX[0]
	ws := sys.Net.WS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Logits(x)
	}
}

// BenchmarkFig5_TrainingEpoch measures one epoch of the paper's training
// configuration on the reduced corpus.
func BenchmarkFig5_TrainingEpoch(b *testing.B) {
	sys := trainedBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := nn.PaperCNN(int64(i))
		tr := &nn.Trainer{Epochs: 1, BatchSize: 50, Seed: int64(i), Workers: 2}
		if _, err := tr.Fit(net, sys.TrainX, sys.TrainY); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAttack crafts adversarial examples with one attack, one eligible
// sample per iteration, and logs the Table III row measured over the
// bench samples.
func benchAttack(b *testing.B, atk attacks.Attack) {
	sys := trainedBenchSystem(b)
	idx := attacks.Eligible(sys.Net.WS(), sys.TestX, sys.TestY, 0)
	if len(idx) == 0 {
		b.Fatal("no eligible samples")
	}
	res := attacks.Evaluate(sys.Net, []attacks.Attack{atk}, sys.TestX, sys.TestY,
		attacks.Options{MaxSamples: 25})
	b.Logf("Table III row: %v", res[0])
	clone := sys.Net.CloneShared().WS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := idx[i%len(idx)]
		adv := atk.Craft(clone, sys.TestX[j], sys.TestY[j])
		if len(adv) != features.NumFeatures {
			b.Fatal("bad adversarial vector")
		}
	}
}

func BenchmarkTableIII_CW(b *testing.B)         { benchAttack(b, attacks.NewCW(0, 0, 0)) }
func BenchmarkTableIII_DeepFool(b *testing.B)   { benchAttack(b, attacks.NewDeepFool(0, 0)) }
func BenchmarkTableIII_ElasticNet(b *testing.B) { benchAttack(b, attacks.NewElasticNet(0, 0, 0, 0)) }
func BenchmarkTableIII_FGSM(b *testing.B)       { benchAttack(b, attacks.NewFGSM(0)) }
func BenchmarkTableIII_JSMA(b *testing.B)       { benchAttack(b, attacks.NewJSMA(0, 0)) }
func BenchmarkTableIII_MIM(b *testing.B)        { benchAttack(b, attacks.NewMIM(0, 0)) }
func BenchmarkTableIII_PGD(b *testing.B)        { benchAttack(b, attacks.NewPGD(0, 0)) }
func BenchmarkTableIII_VAM(b *testing.B)        { benchAttack(b, attacks.NewVAM(0, 0)) }

// benchGEASize runs the size experiment once for the log, then measures
// single GEA crafts against the named target.
func benchGEASize(b *testing.B, targetMalicious bool, table string) {
	sys := trainedBenchSystem(b)
	p, err := sys.GEAPipeline(false)
	if err != nil {
		b.Fatal(err)
	}
	origs := sys.TestSamples()
	rows, err := p.RunSizeExperiment(origs, sys.Samples, targetMalicious)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Logf("%s row: %v", table, r)
	}
	targets, err := gea.SelectBySize(sys.Samples, targetMalicious)
	if err != nil {
		b.Fatal(err)
	}
	var victim *synth.Sample
	for _, s := range origs {
		if s.Malicious != targetMalicious {
			victim = s
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := gea.Merge(victim.Prog, targets.Median.Prog)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := ir.Disassemble(merged)
		if err != nil {
			b.Fatal(err)
		}
		features.Extract(cfg.G())
	}
}

func BenchmarkTableIV_GEAMalwareToBenign(b *testing.B) { benchGEASize(b, false, "Table IV") }
func BenchmarkTableV_GEABenignToMalware(b *testing.B)  { benchGEASize(b, true, "Table V") }

// benchGEAFixed logs the fixed-node tables and measures the selection
// plus one crafting round.
func benchGEAFixed(b *testing.B, targetMalicious bool, table string) {
	sys := trainedBenchSystem(b)
	p, err := sys.GEAPipeline(false)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := p.RunFixedNodesExperiment(sys.TestSamples(), sys.Samples, targetMalicious, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Logf("%s row: %v", table, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gea.SelectFixedNodes(sys.Samples, targetMalicious, 3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI_GEAFixedNodesMtoB(b *testing.B)  { benchGEAFixed(b, false, "Table VI") }
func BenchmarkTableVII_GEAFixedNodesBtoM(b *testing.B) { benchGEAFixed(b, true, "Table VII") }

// BenchmarkFig2to4_MergePipeline measures the figure pipeline: merge the
// Fig. 2 and Fig. 3 programs and disassemble the Fig. 4 result.
func BenchmarkFig2to4_MergePipeline(b *testing.B) {
	orig, err := gea.FigureOriginal()
	if err != nil {
		b.Fatal(err)
	}
	target, err := gea.FigureTarget()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		merged, err := gea.Merge(orig, target)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ir.Disassemble(merged); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Betweenness isolates the most expensive of the 23
// features (Brandes betweenness) on the largest corpus CFG.
func BenchmarkAblation_Betweenness(b *testing.B) {
	sys := trainedBenchSystem(b)
	targets, err := gea.SelectBySize(sys.Samples, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := ir.Disassemble(targets.Maximum.Prog)
	if err != nil {
		b.Fatal(err)
	}
	g := cfg.G()
	b.Logf("largest benign CFG: %d nodes, %d edges", g.N(), g.M())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BetweennessCentrality()
	}
}

// BenchmarkAblation_Disassemble measures CFG recovery alone.
func BenchmarkAblation_Disassemble(b *testing.B) {
	sys := trainedBenchSystem(b)
	targets, err := gea.SelectBySize(sys.Samples, true)
	if err != nil {
		b.Fatal(err)
	}
	prog := targets.Maximum.Prog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Disassemble(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Interpreter measures executing the median malware
// program on the probe inputs (the GEA verification cost per sample).
func BenchmarkAblation_Interpreter(b *testing.B) {
	sys := trainedBenchSystem(b)
	targets, err := gea.SelectBySize(sys.Samples, true)
	if err != nil {
		b.Fatal(err)
	}
	it := &ir.Interp{}
	inputs := synth.ProbeInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := it.Run(targets.Median.Prog, in...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_EpsSweepPGD reports PGD's misclassification rate as
// eps shrinks — the distortion-budget ablation DESIGN.md calls out.
func BenchmarkAblation_EpsSweepPGD(b *testing.B) {
	sys := trainedBenchSystem(b)
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.3} {
		res := attacks.Evaluate(sys.Net, []attacks.Attack{attacks.NewPGD(eps, 20)},
			sys.TestX, sys.TestY, attacks.Options{MaxSamples: 20})
		b.Logf("PGD eps=%.2f MR=%.1f%%", eps, res[0].MR*100)
	}
	idx := attacks.Eligible(sys.Net.WS(), sys.TestX, sys.TestY, 0)
	atk := attacks.NewPGD(0.1, 20)
	clone := sys.Net.CloneShared().WS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := idx[i%len(idx)]
		atk.Craft(clone, sys.TestX[j], sys.TestY[j])
	}
}
