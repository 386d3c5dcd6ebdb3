// The quickstart example builds a small corpus, trains the detector, and
// classifies unseen programs through the full pipeline (disassemble ->
// CFG features -> scale -> CNN). It is the smallest end-to-end use of the
// public API; expect it to run in about a minute.
package main

import (
	"context"
	"fmt"
	"os"

	"advmal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	cfg := advmal.DefaultConfig()
	// Scale down for a fast demo; drop these overrides for the paper's
	// full setup.
	cfg.NumBenign = 80
	cfg.NumMal = 400
	cfg.Epochs = 40
	sys := advmal.NewSystem(cfg)

	fmt.Println("building corpus and extracting CFG features...")
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return err
	}
	fmt.Printf("corpus: %d train / %d test\n", sys.Train.Len(), sys.Test.Len())

	fmt.Println("training the Fig. 5 CNN...")
	if _, err := sys.FitCtx(ctx); err != nil {
		return err
	}
	m, err := sys.EvaluateTest()
	if err != nil {
		return err
	}
	fmt.Println("held-out metrics:", m)

	// Classify one unseen benign and one unseen malicious program
	// end-to-end.
	var picks []*advmal.Sample
	for _, malicious := range []bool{false, true} {
		for _, s := range sys.TestSamples() {
			if s.Malicious == malicious {
				picks = append(picks, s)
				break
			}
		}
	}
	for _, s := range picks {
		pred, probs, err := sys.Classify(s.Prog)
		if err != nil {
			return err
		}
		verdict := "benign"
		if pred == 1 {
			verdict = "MALWARE"
		}
		fmt.Printf("%-16s family=%-8s nodes=%3d -> %s (p=%.3f)\n",
			s.Name, s.Family, s.Nodes, verdict, probs[pred])
	}
	return nil
}
