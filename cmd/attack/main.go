// Command attack trains the detector and evaluates the eight generic
// adversarial attacks, printing Table III (MR, Avg.FG, CT).
//
// Usage:
//
//	attack [-seed N] [-epochs N] [-benign N] [-malware N] [-max N] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/pool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "attack: interrupted — pipeline cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "attack:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed       = flag.Int64("seed", 1, "pipeline seed")
		epochs     = flag.Int("epochs", 200, "training epochs")
		benign     = flag.Int("benign", 276, "benign corpus size")
		malware    = flag.Int("malware", 2281, "malicious corpus size")
		maxSamples = flag.Int("max", 0, "cap attacked samples per method (0 = all correctly classified)")
		families   = flag.Bool("families", false, "train the multi-class family head and evaluate the eight attacks as source->target family misclassification (untargeted + targeted) instead of Table III")
		verbose    = flag.Bool("v", false, "print per-epoch training progress")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Epochs = *epochs
	cfg.NumBenign = *benign
	cfg.NumMal = *malware
	if *families {
		cfg.Classes = core.NumFamilyClasses
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return err
	}
	if _, err := sys.FitCtx(ctx); err != nil {
		return err
	}
	m, err := sys.EvaluateTest()
	if err != nil {
		return err
	}
	fmt.Printf("detector: %v\n\n", m)

	if *families {
		fm, err := sys.EvaluateFamilyHead()
		if err != nil {
			return err
		}
		fmt.Printf("%s\ncollapsed binary operating point: %v\n\n", fm, fm.Collapse())
		fres, err := sys.RunFamilyAttacksCtx(ctx, attacks.Options{MaxSamples: *maxSamples})
		if err != nil {
			return err
		}
		fmt.Print(core.RenderFamilyAttacks(fres))
		return nil
	}

	results, err := sys.RunTableIIICtx(ctx, attacks.Options{MaxSamples: *maxSamples})
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTableIII(results))
	return nil
}
