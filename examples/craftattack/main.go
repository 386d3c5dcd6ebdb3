// The craftattack example trains a reduced detector, takes one correctly
// classified malware sample from the held-out split, and crafts
// adversarial examples with JSMA (fewest features changed) and FGSM
// (one-shot), printing exactly which of the 23 CFG features each attack
// perturbed and how the detector's verdict flips.
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "craftattack:", err)
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
	fmt.Println("building corpus and training (reduced setup)...")
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
	fmt.Println("detector:", m)

	// First correctly classified malware sample in the held-out split.
	ws := sys.Net.WS()
	idx := -1
	for i, y := range sys.TestY {
		if y == nn.ClassMalware && ws.Predict(sys.TestX[i]) == y {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("no correctly classified malware in the test split")
	}
	x := sys.TestX[idx]
	name := sys.Test.Records[idx].Sample.Name
	fmt.Printf("\nvictim: %s (malware, p=%.3f)\n", name, ws.Probs(x)[nn.ClassMalware])

	names := features.Names()
	for _, atk := range []attacks.Attack{attacks.NewJSMA(0, 0), attacks.NewFGSM(0)} {
		adv := atk.Craft(ws, x, nn.ClassMalware)
		probs := ws.Probs(adv)
		pred := nn.Argmax(probs)
		verdict := "still MALWARE"
		if pred == nn.ClassBenign {
			verdict = "now classified BENIGN"
		}
		fmt.Printf("\n%s: %s (p_benign=%.3f)\n", atk.Name(), verdict, probs[nn.ClassBenign])
		fmt.Println("features changed (scaled space):")
		changed := 0
		for i := range x {
			d := adv[i] - x[i]
			if math.Abs(d) > 1e-3 {
				fmt.Printf("  %-28s %+.3f (%.3f -> %.3f)\n", names[i], d, x[i], adv[i])
				changed++
			}
		}
		fmt.Printf("  total: %d of %d features\n", changed, len(x))
	}
	return nil
}
