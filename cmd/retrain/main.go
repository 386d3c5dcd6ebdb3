// Command retrain drives the online model lifecycle from outside the
// serving process: load the live model, draw labeled windows from the
// drifting sample stream, train a candidate per window, canary-gate it
// against the live model (clean holdout metrics plus evasion rates under
// the paper's eight attacks), and on pass either save the winner to disk
// or hot-swap it into a running replica over POST /admin/swap.
//
// Usage:
//
//	retrain -model detector.gob -out detector2.gob              # offline: save the gated winner
//	retrain -model detector.gob -swap-url http://127.0.0.1:8377 # online: swap into a live replica
//	retrain -windows 3 -json                                    # machine-readable cycle reports
//
// Exit status is 0 only when at least one window produced a candidate
// that passed every gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"advmal/internal/core"
	"advmal/internal/lifecycle"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "retrain:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		model   = flag.String("model", "detector.gob", "live model file (train one with repro train -model)")
		out     = flag.String("out", "", "save the last gate-passing candidate here")
		swapURL = flag.String("swap-url", "", "base URL of a replica started with serve -admin; each gate-passing candidate is POSTed to /admin/swap")
		windows = flag.Int("windows", 1, "retraining windows to run")
		benign  = flag.Int("benign", 40, "benign samples per window")
		malware = flag.Int("malware", 120, "malicious samples per window")
		epochs  = flag.Int("epochs", 30, "candidate training epochs")
		seed    = flag.Int64("seed", 1, "stream + training seed")
		warm    = flag.Bool("warm", true, "warm-start candidates from the live weights")
		asJSON  = flag.Bool("json", false, "emit one CycleReport JSON object per window")

		maxAccDrop = flag.Float64("max-acc-drop", 0.01, "gate: max holdout accuracy drop vs live")
		maxFNRInc  = flag.Float64("max-fnr-increase", 0.01, "gate: max FNR increase vs live")
		maxFPRInc  = flag.Float64("max-fpr-increase", 0.02, "gate: max FPR increase vs live")
		maxEvaInc  = flag.Float64("max-evasion-increase", 0.05, "gate: max per-attack misclassification-rate increase vs live")
		atkSamples = flag.Int("attack-samples", 32, "holdout samples per evasion gate (negative skips the attack gates)")
	)
	flag.Parse()

	f, err := os.Open(*model)
	if err != nil {
		return fmt.Errorf("opening live model (train one with repro train -model): %w", err)
	}
	live, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	h := core.NewHandle(live)

	rt := &lifecycle.Retrainer{
		Handle: h,
		Stream: lifecycle.NewStream(lifecycle.StreamConfig{
			Seed:      *seed,
			NumBenign: *benign,
			NumMal:    *malware,
		}),
		Trainer: lifecycle.Trainer{Seed: *seed, Epochs: *epochs},
		Gates: lifecycle.Gates{
			MaxAccuracyDrop:    *maxAccDrop,
			MaxFNRIncrease:     *maxFNRInc,
			MaxFPRIncrease:     *maxFPRInc,
			MaxEvasionIncrease: *maxEvaInc,
			AttackSamples:      *atkSamples,
		},
		WarmStart: *warm,
	}

	enc := json.NewEncoder(os.Stdout)
	passed := 0
	for w := 0; w < *windows; w++ {
		rep, err := rt.RunOnce(ctx)
		if err != nil {
			return err
		}
		if *asJSON {
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			printReport(rep)
		}
		if !rep.Swapped {
			continue
		}
		passed++
		// The handle now serves the winner; publish it onward.
		winner := h.Current()
		if *out != "" {
			if err := saveModel(winner, *out); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "retrain: candidate v%d saved to %s\n", winner.Version, *out)
		}
		if *swapURL != "" {
			resp, err := postSwap(ctx, *swapURL, winner)
			if err != nil {
				return fmt.Errorf("swapping into %s: %w", *swapURL, err)
			}
			fmt.Fprintf(os.Stderr, "retrain: replica %s swapped v%d -> v%d\n",
				*swapURL, resp.OldVersion, resp.NewVersion)
		}
	}
	if passed == 0 {
		return fmt.Errorf("no candidate passed the canary gates in %d window(s)", *windows)
	}
	return nil
}

// printReport renders one cycle for humans: verdict line plus the
// gate-by-gate margins.
func printReport(rep *lifecycle.CycleReport) {
	verdict := "REJECTED"
	if rep.Swapped {
		verdict = fmt.Sprintf("PASSED (v%d -> v%d)", rep.OldVersion, rep.NewVersion)
	}
	fmt.Printf("window %d (%d samples): %s\n", rep.Window, rep.WindowSize, verdict)
	fmt.Printf("  live      %s\n  candidate %s\n", rep.Canary.Live, rep.Canary.Candidate)
	for _, g := range rep.Canary.Gates {
		mark := "PASS"
		if !g.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  gate %-18s %s  live=%.4f cand=%.4f margin=%+.4f\n",
			g.Name, mark, g.Live, g.Candidate, g.Margin)
	}
	fmt.Printf("  train %v, canary %v\n",
		rep.TrainTime.Round(time.Millisecond), rep.CanaryTime.Round(time.Millisecond))
}

// saveModel writes the model gob to path.
func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// swapResponse mirrors the serve admin endpoint's response.
type swapResponse struct {
	OldVersion uint64 `json:"old_version"`
	NewVersion uint64 `json:"new_version"`
}

// postSwap ships the model gob to a replica's admin swap endpoint.
func postSwap(ctx context.Context, base string, m *core.Model) (*swapResponse, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admin/swap", &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sr swapResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("decoding swap response: %w", err)
	}
	return &sr, nil
}
