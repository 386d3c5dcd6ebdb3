// Command train builds the corpus, trains the Fig. 5 CNN detector, and
// reports the §IV-C1 metrics (accuracy, FNR, FPR) plus the architecture
// summary. Optionally saves the trained weights.
//
// Usage:
//
//	train [-seed N] [-epochs N] [-batch N] [-benign N] [-malware N] [-workers N] [-model weights.gob] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/core"
	"advmal/internal/nn"
	"advmal/internal/pool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "train: interrupted — pipeline cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed     = flag.Int64("seed", 1, "pipeline seed")
		epochs   = flag.Int("epochs", 200, "training epochs (paper: 200)")
		batch    = flag.Int("batch", 100, "batch size (paper: 100)")
		benign   = flag.Int("benign", 276, "benign corpus size")
		malware  = flag.Int("malware", 2281, "malicious corpus size")
		model    = flag.String("model", "", "save trained weights (gob) to this file")
		families = flag.Bool("families", false, "also train the family-level multi-class classifier")
		workers  = flag.Int("workers", 0, "data-parallel width for feature extraction and training (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print per-epoch progress")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Epochs = *epochs
	cfg.BatchSize = *batch
	cfg.NumBenign = *benign
	cfg.NumMal = *malware
	cfg.Workers = *workers
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return err
	}
	fmt.Printf("corpus: %d train / %d test samples\n", sys.Train.Len(), sys.Test.Len())
	hist, err := sys.FitCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("trained %d epochs (final loss %.5f)\n", len(hist.Loss), hist.Loss[len(hist.Loss)-1])
	fmt.Println("\nFig. 5 architecture:")
	fmt.Print(sys.Net.Summary())

	test, err := sys.EvaluateTest()
	if err != nil {
		return err
	}
	train, err := sys.EvaluateTrain()
	if err != nil {
		return err
	}
	fmt.Printf("\ntrain: %v\ntest:  %v\n", train, test)
	fmt.Printf("test (paper's benign-positive convention): AR=%.2f%% FNR=%.2f%% FPR=%.2f%%\n",
		test.Accuracy*100, test.FPR*100, test.FNR*100)
	fmt.Printf("test AUC: %.4f\n", nn.DetectorAUC(sys.Net, sys.TestX, sys.TestY))

	if *families {
		fmt.Println("\ntraining the family-level classifier...")
		fc, _, err := sys.TrainFamilyClassifier()
		if err != nil {
			return err
		}
		fm, err := sys.EvaluateFamilies(fc)
		if err != nil {
			return err
		}
		fmt.Print(fm)
	}

	if *model != "" {
		f, err := os.Create(*model)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sys.Net.Save(f); err != nil {
			return err
		}
		fmt.Println("weights written to", *model)
	}
	return nil
}
