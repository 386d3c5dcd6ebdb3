// Command gea trains the detector and runs the Graph Embedding and
// Augmentation experiments, printing Tables IV-VII. Every crafted sample
// is verified functionality-preserving via interpreter-trace equality
// unless -noverify is given.
//
// Usage:
//
//	gea [-seed N] [-epochs N] [-benign N] [-malware N] [-noverify] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/core"
	"advmal/internal/gea"
	"advmal/internal/pool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "gea: interrupted — pipeline cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gea:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed     = flag.Int64("seed", 1, "pipeline seed")
		epochs   = flag.Int("epochs", 200, "training epochs")
		benign   = flag.Int("benign", 276, "benign corpus size")
		malware  = flag.Int("malware", 2281, "malicious corpus size")
		noverify = flag.Bool("noverify", false, "skip per-sample functionality verification")
		verbose  = flag.Bool("v", false, "print per-epoch training progress")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Epochs = *epochs
	cfg.NumBenign = *benign
	cfg.NumMal = *malware
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

	verify := !*noverify
	experiments := []struct {
		title string
		run   func(context.Context, bool) ([]gea.Row, error)
		fixed bool
	}{
		{"TABLE IV: GEA MALWARE TO BENIGN MISCLASSIFICATION RATE", sys.RunTableIVCtx, false},
		{"TABLE V: GEA BENIGN TO MALWARE MISCLASSIFICATION RATE", sys.RunTableVCtx, false},
		{"TABLE VI: GEA MALWARE TO BENIGN, FIXED NUMBER OF NODES", sys.RunTableVICtx, true},
		{"TABLE VII: GEA BENIGN TO MALWARE, FIXED NUMBER OF NODES", sys.RunTableVIICtx, true},
	}
	for _, exp := range experiments {
		rows, err := exp.run(ctx, verify)
		if err != nil {
			return err
		}
		if exp.fixed {
			fmt.Print(core.RenderGEAFixed(exp.title, rows))
		} else {
			fmt.Print(core.RenderGEASize(exp.title, rows))
		}
		if verify {
			verified, total := 0, 0
			for _, r := range rows {
				verified += r.Verified
				total += r.Total
			}
			fmt.Printf("functionality preserved on %d/%d crafted samples\n", verified, total)
		}
		fmt.Println()
	}
	return nil
}
