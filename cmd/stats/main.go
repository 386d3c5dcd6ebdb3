// Command stats performs the paper's §III corpus analysis: it generates
// (or loads) the corpus, extracts the 23 CFG features, and prints the
// per-class feature distributions, the benign-vs-malware comparison, the
// most discriminative features, and per-family structural summaries.
//
// Usage:
//
//	stats [-seed N] [-benign N] [-malware N] [-in corpus.json] [-top K]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/dataset"
	"advmal/internal/features"
	"advmal/internal/pool"
	"advmal/internal/report"
	"advmal/internal/synth"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "stats: interrupted — analysis cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed    = flag.Int64("seed", 1, "generation seed")
		benign  = flag.Int("benign", 276, "benign samples")
		malware = flag.Int("malware", 2281, "malicious samples")
		in      = flag.String("in", "", "load corpus JSON (from corpusgen) instead of generating")
		top     = flag.Int("top", 8, "how many discriminative features to report")
	)
	flag.Parse()

	var samples []*synth.Sample
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if samples, err = dataset.LoadSamples(f); err != nil {
			return err
		}
	} else {
		var err error
		samples, err = synth.Generate(synth.Config{Seed: *seed, NumBenign: *benign, NumMal: *malware})
		if err != nil {
			return err
		}
	}
	ds, skips, err := dataset.FromSamplesCtx(ctx, samples, dataset.Options{SkipBad: true})
	if err != nil {
		return err
	}
	if skips.Count() > 0 {
		fmt.Fprintf(os.Stderr, "stats: %s\n", skips)
	}
	var benignVecs, malVecs []features.Vector
	for _, r := range ds.Records {
		if r.Label == dataset.LabelMalware {
			malVecs = append(malVecs, r.Raw)
		} else {
			benignVecs = append(benignVecs, r.Raw)
		}
	}

	fmt.Println("=== Benign vs malware feature medians (§III analysis) ===")
	fmt.Println(features.Compare("benign", benignVecs, "malware", malVecs))

	fmt.Printf("=== Top %d discriminative features (robust effect size) ===\n", *top)
	names := features.Names()
	for rank, idx := range features.TopDiscriminative(benignVecs, malVecs, *top) {
		fmt.Printf("%2d. %s\n", rank+1, names[idx])
	}
	fmt.Println()

	famTable := report.New("Per-family structure", "Family", "Samples",
		"Median nodes", "Median edges", "Median density")
	fams := append([]synth.Family{synth.Benign}, synth.MalwareFamilies()...)
	for _, fam := range fams {
		var vecs []features.Vector
		for _, r := range ds.Records {
			if r.Sample.Family == fam {
				vecs = append(vecs, r.Raw)
			}
		}
		if len(vecs) == 0 {
			continue
		}
		d := features.Describe(vecs)
		famTable.Add(fam.String(), len(vecs),
			fmt.Sprintf("%.0f", d[22].Stats[2]),
			fmt.Sprintf("%.0f", d[21].Stats[2]),
			fmt.Sprintf("%.4f", d[20].Stats[2]))
	}
	fmt.Print(famTable.String())
	return nil
}
