// Command repro runs the paper's entire evaluation end-to-end — corpus
// (Table I), features (Table II), detector (§IV-C1, Fig. 5), the eight
// generic attacks (Table III), and GEA (Tables IV-VII) — and prints every
// table in the paper's layout.
//
// With the defaults this is the full-fidelity run (2,557 samples, 200
// epochs) and takes on the order of 15-30 minutes on a laptop; use
// -epochs/-max/-benign/-malware to scale it down.
//
// Usage:
//
//	repro [-seed N] [-epochs N] [-max N] [-benign N] [-malware N] [-noverify] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/pool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "repro: interrupted — pipeline cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed       = flag.Int64("seed", 1, "pipeline seed")
		epochs     = flag.Int("epochs", 200, "training epochs (paper: 200)")
		benign     = flag.Int("benign", 276, "benign corpus size (paper: 276)")
		malware    = flag.Int("malware", 2281, "malicious corpus size (paper: 2281)")
		maxSamples = flag.Int("max", 0, "cap attacked samples per generic method (0 = all)")
		noverify   = flag.Bool("noverify", false, "skip GEA functionality verification")
		workers    = flag.Int("workers", 0, "data-parallel width for feature extraction and training (0 = GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "print per-epoch training progress")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Epochs = *epochs
	cfg.NumBenign = *benign
	cfg.NumMal = *malware
	cfg.Workers = *workers
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	sys := core.New(cfg)

	t0 := time.Now()
	rep, err := sys.RunAllCtx(ctx, core.RunAllOptions{
		Attacks:   attacks.Options{MaxSamples: *maxSamples},
		VerifyGEA: !*noverify,
	})
	if err != nil {
		return err
	}
	fmt.Print(sys.Render(rep))
	fmt.Printf("\nFig. 5 architecture:\n%s", sys.Net.Summary())
	fmt.Printf("\ntotal wall time: %v\n", time.Since(t0).Round(time.Second))
	return nil
}
