// Command corpusgen generates the synthetic IoT software corpus (Table I)
// and optionally writes it as JSON plus a CSV feature matrix.
//
// Usage:
//
//	corpusgen [-seed N] [-benign N] [-malware N] [-out corpus.json] [-csv features.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/dataset"
	"advmal/internal/pool"
	"advmal/internal/report"
	"advmal/internal/synth"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "corpusgen: interrupted — generation cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		seed    = flag.Int64("seed", 1, "generation seed")
		benign  = flag.Int("benign", 276, "number of benign samples (Table I: 276)")
		malware = flag.Int("malware", 2281, "number of malicious samples (Table I: 2281)")
		out     = flag.String("out", "", "write the corpus as JSON to this file")
		csvOut  = flag.String("csv", "", "write the 23-feature matrix as CSV to this file")
	)
	flag.Parse()

	samples, err := synth.Generate(synth.Config{Seed: *seed, NumBenign: *benign, NumMal: *malware})
	if err != nil {
		return err
	}
	total := len(samples)
	t := report.New("TABLE I: DISTRIBUTION OF IOT SAMPLES ACROSS THE CLASSES",
		"Class types", "# of Samples", "% of Samples")
	t.Add("Benign", *benign, report.Pct(float64(*benign)/float64(total))+"%")
	t.Add("Malicious", *malware, report.Pct(float64(*malware)/float64(total))+"%")
	t.Add("Total", total, "100%")
	fmt.Print(t.String())

	fam := report.New("Family breakdown", "Family", "# of Samples", "Median nodes")
	for _, f := range append([]synth.Family{synth.Benign}, synth.MalwareFamilies()...) {
		var nodes []int
		for _, s := range samples {
			if s.Family == f {
				nodes = append(nodes, s.Nodes)
			}
		}
		if len(nodes) == 0 {
			continue
		}
		med := median(nodes)
		fam.Add(f.String(), len(nodes), med)
	}
	fmt.Print(fam.String())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := dataset.SaveSamples(f, samples); err != nil {
			return err
		}
		fmt.Println("corpus written to", *out)
	}
	if *csvOut != "" {
		ds, skips, err := dataset.FromSamplesCtx(ctx, samples, dataset.Options{SkipBad: true})
		if err != nil {
			return err
		}
		if skips.Count() > 0 {
			fmt.Fprintf(os.Stderr, "corpusgen: %s\n", skips)
		}
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ds.SaveCSV(f); err != nil {
			return err
		}
		fmt.Println("features written to", *csvOut)
	}
	return nil
}

func median(xs []int) int {
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
