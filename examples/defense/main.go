// The defense example implements the direction the paper's conclusion
// calls for: adversarial training. It measures the eight attacks against
// a normally trained detector, retrains with adversarially augmented
// data, and measures again, printing the misclassification-rate drop per
// attack.
package main

import (
	"context"
	"fmt"
	"os"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "defense:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.NumBenign = 80
	cfg.NumMal = 400
	cfg.Epochs = 40
	sys := core.New(cfg)
	fmt.Println("building corpus and training the baseline detector...")
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return err
	}
	if _, err := sys.FitCtx(ctx); err != nil {
		return err
	}
	before, err := sys.EvaluateTest()
	if err != nil {
		return err
	}

	opts := attacks.Options{MaxSamples: 40}
	fmt.Println("measuring attacks against the baseline...")
	baseline, err := sys.RunTableIIICtx(ctx, opts)
	if err != nil {
		return err
	}

	fmt.Println("adversarial training (online PGD, half of every batch)...")
	if _, err := sys.AdversarialTrain(core.AdversarialTrainOptions{Epochs: 40}); err != nil {
		return err
	}
	after, err := sys.EvaluateTest()
	if err != nil {
		return err
	}
	fmt.Printf("clean accuracy: before=%.2f%% after=%.2f%%\n",
		before.Accuracy*100, after.Accuracy*100)

	fmt.Println("re-measuring attacks against the hardened detector...")
	hardened, err := sys.RunTableIIICtx(ctx, opts)
	if err != nil {
		return err
	}

	t := report.New("Adversarial training: misclassification rate before vs after",
		"Attack", "MR before (%)", "MR after (%)")
	for i, b := range baseline {
		t.Add(b.Attack, report.Pct(b.MR), report.Pct(hardened[i].MR))
	}
	fmt.Print(t.String())
	return nil
}
