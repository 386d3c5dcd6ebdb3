// The blackbox example explores the other side of the paper's §II-C
// threat model: an adversary WITHOUT white-box access. It steals the
// detector by querying it (training a substitute on the detector's own
// verdicts), crafts white-box adversarial examples against the
// substitute, and measures how many transfer to the real detector.
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
		fmt.Fprintln(os.Stderr, "blackbox:", err)
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
	fmt.Println("training the victim detector (reduced setup)...")
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
	fmt.Println("victim:", m)

	fmt.Println("stealing the model: training a substitute on the victim's verdicts...")
	results, err := attacks.TransferEvaluateCtx(ctx, sys.Net,
		[]attacks.Attack{attacks.NewPGD(0, 0), attacks.NewMIM(0, 0), attacks.NewFGSM(0), attacks.NewJSMA(0, 0)},
		sys.TrainX, // query budget: the adversary's own sample collection
		sys.TestX, sys.TestY,
		attacks.TransferConfig{Seed: 5, MaxSamples: 60})
	if err != nil {
		return err
	}
	t := report.New("Black-box transfer (white-box on substitute -> replay on victim)",
		"Attack", "Substitute MR (%)", "Victim MR (%)", "Agreement (%)")
	for _, r := range results {
		t.Add(r.Attack, report.Pct(r.SubstituteMR), report.Pct(r.VictimMR), report.Pct(r.SubstituteAcc))
	}
	fmt.Print(t.String())
	fmt.Println("\nTransfer is weaker than the white-box Table III rates — the cost")
	fmt.Println("of black-box access — but nonzero, so secrecy of the model is not")
	fmt.Println("a defense.")
	return nil
}
