// Command classify applies a saved detector (see cmd/train -model ... or
// classify -train) to programs given as assembly text files in the ir
// format, printing each verdict with its confidence and CFG summary.
//
// Usage:
//
//	classify -train -model detector.gob              # train & save a detector
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
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/pool"
	"advmal/internal/report"
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
		model    = flag.String("model", "detector.gob", "detector file")
		train    = flag.Bool("train", false, "train a detector and save it to -model")
		seed     = flag.Int64("seed", 1, "pipeline seed (with -train)")
		epochs   = flag.Int("epochs", 200, "training epochs (with -train)")
		benign   = flag.Int("benign", 276, "benign corpus size (with -train)")
		malware  = flag.Int("malware", 2281, "malicious corpus size (with -train)")
		asJSON   = flag.Bool("json", false, "emit one serve.Verdict JSON object per line")
		idxPath  = flag.String("index", "", "with -train: also build the similarity corpus index (HNSW over the labeled training split) and save it here")
		families = flag.Bool("families", false, "with -train: fit the multi-class family head (benign + each malware family) instead of the binary detector; prints the confusion matrix and the collapsed binary operating point")
	)
	flag.Parse()

	if *train {
		cfg := core.DefaultConfig()
		cfg.Seed = *seed
		cfg.Epochs = *epochs
		cfg.NumBenign = *benign
		cfg.NumMal = *malware
		if *families {
			cfg.Classes = core.NumFamilyClasses
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
		fmt.Println("trained:", m)
		if *families {
			fm, err := sys.EvaluateFamilyHead()
			if err != nil {
				return err
			}
			fmt.Print(report.Confusion(
				fmt.Sprintf("Family head confusion (accuracy %.2f%%, n=%d)", fm.Accuracy*100, fm.N),
				core.ClassLabels(core.NumFamilyClasses), fm.Confusion).String())
			fmt.Printf("collapsed binary operating point: %v\n", fm.Collapse())
		}
		det, err := sys.Snapshot()
		if err != nil {
			return err
		}
		f, err := os.Create(*model)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := det.Save(f); err != nil {
			return err
		}
		fmt.Println("detector saved to", *model)
		if *idxPath != "" {
			corpus, err := sys.BuildCorpusIndex(index.HNSWConfig{}, 0)
			if err != nil {
				return err
			}
			fi, err := os.Create(*idxPath)
			if err != nil {
				return err
			}
			defer fi.Close()
			if err := corpus.Save(fi); err != nil {
				return err
			}
			fmt.Printf("similarity index saved to %s (%d entries, triage threshold %.4f)\n",
				*idxPath, corpus.HNSW.Len(), corpus.Triage.Threshold)
		}
		return nil
	}

	if flag.NArg() == 0 {
		return fmt.Errorf("no programs given; pass assembly files (ir format) or use -train")
	}
	f, err := os.Open(*model)
	if err != nil {
		return fmt.Errorf("opening detector (train one with -train): %w", err)
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
