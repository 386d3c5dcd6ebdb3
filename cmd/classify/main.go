// Command classify applies a saved detector (written by repro train
// -model) to programs given as assembly text files in the ir format,
// printing each verdict with its confidence and CFG summary.
//
// Usage:
//
//	classify -model detector.gob prog1.asm prog2.asm # classify programs
//	classify -json -model detector.gob prog1.asm     # one verdict object per line
//
// -json emits each verdict in the serving schema (internal/serve.Verdict,
// the same objects cmd/serve returns), so offline and online pipelines
// are diffable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"advmal/internal/core"
	"advmal/internal/ir"
	"advmal/internal/pool"
	"advmal/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if pool.Cancelled(err) {
			fmt.Fprintln(os.Stderr, "classify: interrupted — pipeline cancelled cleanly, partial progress above")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		model  = flag.String("model", "detector.gob", "detector file (repro train -model writes one)")
		asJSON = flag.Bool("json", false, "emit one serve.Verdict JSON object per line")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		return fmt.Errorf("no programs given; pass assembly files (ir format)")
	}
	f, err := os.Open(*model)
	if err != nil {
		return fmt.Errorf("opening detector (train one with repro train -model): %w", err)
	}
	det, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	if *asJSON {
		return classifyFilesJSON(ctx, det, flag.Args(), os.Stdout)
	}
	return classifyFiles(ctx, det, flag.Args(), os.Stdout)
}

// classifyFiles classifies each assembly file with det, writing one verdict
// line per program to w. Malformed inputs produce errors, never panics: the
// parser, disassembler, and the recover-guarded detector forward pass all
// report failures as wrapped errors carrying the file path.
func classifyFiles(ctx context.Context, det *core.Model, paths []string, w io.Writer) error {
	for _, path := range paths {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := classifyOne(det, path)
		if err != nil {
			return err
		}
		verdict := "benign"
		if v.Malicious {
			verdict = "MALWARE"
			if v.Family != "" {
				verdict += " (" + v.Family + ")"
			}
		}
		fmt.Fprintf(w, "%-30s %s (p=%.3f) — %d blocks, %d edges\n",
			path, verdict, v.Confidence, v.Blocks, v.Edges)
	}
	return nil
}

// classifyFilesJSON emits one serve.Verdict object per line — the exact
// response schema of cmd/serve's classify endpoint.
func classifyFilesJSON(ctx context.Context, det *core.Model, paths []string, w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, path := range paths {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := classifyOne(det, path)
		if err != nil {
			return err
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// classifyOne runs the shared parse → vectorize → classify pipeline on
// one file and assembles the serving-schema verdict.
func classifyOne(det *core.Model, path string) (serve.Verdict, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return serve.Verdict{}, err
	}
	prog, err := ir.Parse(string(text))
	if err != nil {
		return serve.Verdict{}, fmt.Errorf("%s: %w", path, err)
	}
	vec, blocks, edges, err := det.Vectorize(prog)
	if err != nil {
		return serve.Verdict{}, fmt.Errorf("%s: %w", path, err)
	}
	w := det.AcquireWS()
	probs, err := w.SafeProbs(vec)
	det.ReleaseWS(w)
	if err != nil {
		return serve.Verdict{}, fmt.Errorf("%s: %w", path, err)
	}
	v, err := serve.MakeVerdict(path, probs, blocks, edges, true, det.Version)
	if err != nil {
		return serve.Verdict{}, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
