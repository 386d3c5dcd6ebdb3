// Command repro reproduces the paper's evaluation. Bare, it runs the
// whole pipeline — corpus (Table I), features (Table II), detector
// (§IV-C1, Fig. 5), the eight generic attacks (Table III), and GEA
// (Tables IV-VII) — and prints every table in the paper's layout. A
// subcommand runs one stage:
//
//	repro  [-seed N] [-epochs N] [-benign N] [-malware N] [-workers N] [-max N] [-noverify] [-v]
//	repro corpus [-seed N] [-benign N] [-malware N] [-in corpus.json] [-out corpus.json] [-csv features.csv] [-top K]
//	repro train  [-seed N] [-epochs N] [-batch N] [-benign N] [-malware N] [-workers N] [-families] [-model detector.gob] [-index corpus.gob] [-v]
//	repro attack [-seed N] [-epochs N] [-benign N] [-malware N] [-workers N] [-max N] [-families] [-v]
//	repro gea    [-seed N] [-epochs N] [-benign N] [-malware N] [-workers N] [-noverify] [-v]
//
// corpus prints Table I, the §III feature analysis and the per-family
// structure, and writes the corpus (-out, which -in reads back) and its
// feature matrix (-csv). train fits the Fig. 5 CNN, reports the §IV-C1
// metrics, and writes the detector that cmd/classify, cmd/serve and
// cmd/retrain load (-model) and the similarity index cmd/serve -index
// loads (-index). attack prints Table III and gea Tables IV-VII, every
// GEA sample verified functionality-preserving unless -noverify is
// given. -families fits the family head (benign plus one class per
// malware family) instead of the binary detector; attack then evaluates
// source->target family misclassification in place of Table III.
//
// With the defaults the bare run is the full-fidelity run (2,557 samples,
// 200 epochs) and takes on the order of 15-30 minutes on a laptop; use
// -epochs/-max/-benign/-malware to scale it down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/dataset"
	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/index"
	"advmal/internal/nn"
	"advmal/internal/pool"
	"advmal/internal/report"
	"advmal/internal/synth"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case pool.Cancelled(err):
		fmt.Fprintln(os.Stderr, "repro: interrupted — pipeline cancelled cleanly, partial progress above")
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// stages maps each subcommand to the stage it runs; "" is the bare run.
var stages = map[string]func(context.Context, []string, io.Writer) error{
	"":       runAll,
	"corpus": runCorpus,
	"train":  runTrain,
	"attack": runAttack,
	"gea":    runGEA,
}

// run dispatches args to a stage, which writes its report to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	stage, ok := stages[name]
	if !ok {
		return fmt.Errorf("unknown subcommand %q; usage: repro [corpus | train | attack | gea] [flags]", name)
	}
	return stage(ctx, args, w)
}

// configFlags returns the named stage's flag set with the pipeline flags
// registered, and the core.Config that parsing it fills in. The corpus
// flags (-seed, -benign, -malware) are always registered; the training
// flags (-epochs, -workers, -v) only when train is set.
func configFlags(name string, train bool) (*flag.FlagSet, *core.Config) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	cfg := core.DefaultConfig()
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "pipeline seed")
	fs.IntVar(&cfg.NumBenign, "benign", cfg.NumBenign, "benign corpus size (paper: 276)")
	fs.IntVar(&cfg.NumMal, "malware", cfg.NumMal, "malicious corpus size (paper: 2281)")
	if train {
		fs.IntVar(&cfg.Epochs, "epochs", cfg.Epochs, "training epochs (paper: 200)")
		fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "data-parallel width for feature extraction, training and crafting (0 = GOMAXPROCS)")
		fs.BoolFunc("v", "print per-epoch training progress to stderr", func(s string) error {
			on, err := strconv.ParseBool(s)
			if on {
				cfg.Verbose = os.Stderr
			}
			return err
		})
	}
	return fs, &cfg
}

// parse parses args into fs and rejects positional arguments, which no
// stage takes.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// runAll reproduces every table end to end.
func runAll(ctx context.Context, args []string, w io.Writer) error {
	fs, cfg := configFlags("repro", true)
	maxSamples := fs.Int("max", 0, "cap attacked samples per generic method (0 = all)")
	noverify := fs.Bool("noverify", false, "skip GEA functionality verification")
	if err := parse(fs, args); err != nil {
		return err
	}
	sys := core.New(*cfg)
	t0 := time.Now()
	rep, err := sys.RunAllCtx(ctx, core.RunAllOptions{
		Attacks:   attacks.Options{MaxSamples: *maxSamples},
		VerifyGEA: !*noverify,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, sys.Render(rep))
	fmt.Fprintf(w, "\nFig. 5 architecture:\n%s", sys.Net.Summary())
	fmt.Fprintf(w, "\ntotal wall time: %v\n", time.Since(t0).Round(time.Second))
	return nil
}

// runCorpus generates (or loads) the corpus, prints Table I and the §III
// corpus analysis — per-class feature medians, the most discriminative
// features, per-family structure — and writes the corpus and its
// feature matrix.
func runCorpus(ctx context.Context, args []string, w io.Writer) error {
	fs, cfg := configFlags("repro corpus", false)
	in := fs.String("in", "", "load the corpus JSON (as -out writes it) instead of generating one")
	out := fs.String("out", "", "write the corpus as JSON to this file")
	csvOut := fs.String("csv", "", "write the 23-feature matrix as CSV to this file")
	top := fs.Int("top", 8, "how many discriminative features to report")
	if err := parse(fs, args); err != nil {
		return err
	}
	var samples []*synth.Sample
	var err error
	if *in != "" {
		samples, err = loadSamples(*in)
	} else {
		samples, err = synth.Generate(synth.Config{Seed: cfg.Seed, NumBenign: cfg.NumBenign, NumMal: cfg.NumMal})
	}
	if err != nil {
		return err
	}
	sys := core.New(*cfg)
	if err := sys.BuildFromSamples(ctx, samples); err != nil {
		return err
	}
	tableI, err := sys.RenderTableI()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, tableI)

	var benignVecs, malVecs []features.Vector
	byFamily := map[synth.Family][]features.Vector{}
	for _, r := range sys.Data.Records {
		if r.Label == dataset.LabelMalware {
			malVecs = append(malVecs, r.Raw)
		} else {
			benignVecs = append(benignVecs, r.Raw)
		}
		byFamily[r.Sample.Family] = append(byFamily[r.Sample.Family], r.Raw)
	}
	fmt.Fprintln(w, "=== Benign vs malware feature medians (§III analysis) ===")
	fmt.Fprintln(w, features.Compare("benign", benignVecs, "malware", malVecs))
	fmt.Fprintf(w, "=== Top %d discriminative features (robust effect size) ===\n", *top)
	names := features.Names()
	for rank, idx := range features.TopDiscriminative(benignVecs, malVecs, *top) {
		fmt.Fprintf(w, "%2d. %s\n", rank+1, names[idx])
	}
	fmt.Fprintln(w)

	famTable := report.New("Per-family structure", "Family", "Samples",
		"Median nodes", "Median edges", "Median density")
	for _, fam := range append([]synth.Family{synth.Benign}, synth.MalwareFamilies()...) {
		vecs := byFamily[fam]
		if len(vecs) == 0 {
			continue
		}
		d := features.Describe(vecs)
		famTable.Add(fam.String(), len(vecs),
			fmt.Sprintf("%.0f", d[22].Stats[2]),
			fmt.Sprintf("%.0f", d[21].Stats[2]),
			fmt.Sprintf("%.4f", d[20].Stats[2]))
	}
	fmt.Fprint(w, famTable.String())

	if *out != "" {
		if err := writeFile(*out, func(f io.Writer) error { return dataset.SaveSamples(f, samples) }); err != nil {
			return err
		}
		fmt.Fprintln(w, "corpus written to", *out)
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, sys.Data.SaveCSV); err != nil {
			return err
		}
		fmt.Fprintln(w, "features written to", *csvOut)
	}
	return nil
}

// runTrain fits the detector, reports its §IV-C1 metrics, and writes the
// deployable detector and the similarity index.
func runTrain(ctx context.Context, args []string, w io.Writer) error {
	fs, cfg := configFlags("repro train", true)
	fs.IntVar(&cfg.BatchSize, "batch", cfg.BatchSize, "batch size (paper: 100)")
	families := fs.Bool("families", false, "fit the family head (benign + each malware family) instead of the binary detector; prints its confusion matrix and collapsed binary operating point")
	model := fs.String("model", "", "write the trained detector to this file (what classify, serve and retrain load)")
	idxPath := fs.String("index", "", "also build the similarity corpus index (HNSW over the labeled training split) and write it to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *families {
		cfg.Classes = core.NumFamilyClasses
	}
	sys := core.New(*cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "corpus: %d train / %d test samples\n", sys.Train.Len(), sys.Test.Len())
	hist, err := sys.FitCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trained %d epochs (final loss %.5f)\n", len(hist.Loss), hist.Loss[len(hist.Loss)-1])
	fmt.Fprintf(w, "\nFig. 5 architecture:\n%s", sys.Net.Summary())

	test, err := sys.EvaluateTest()
	if err != nil {
		return err
	}
	train, err := sys.EvaluateTrain()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrain: %v\ntest:  %v\n", train, test)
	fmt.Fprintf(w, "test (paper's benign-positive convention): AR=%.2f%% FNR=%.2f%% FPR=%.2f%%\n",
		test.Accuracy*100, test.FPR*100, test.FNR*100)
	if *families {
		if err := printFamilyHead(w, sys); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "test AUC: %.4f\n", nn.DetectorAUC(sys.Net, sys.TestX, sys.TestY))
	}

	if *model != "" {
		det, err := sys.Snapshot()
		if err != nil {
			return err
		}
		if err := writeFile(*model, det.Save); err != nil {
			return err
		}
		fmt.Fprintln(w, "detector written to", *model)
	}
	if *idxPath != "" {
		corpus, err := sys.BuildCorpusIndex(index.HNSWConfig{}, 0)
		if err != nil {
			return err
		}
		if err := writeFile(*idxPath, corpus.Save); err != nil {
			return err
		}
		fmt.Fprintf(w, "similarity index written to %s (%d entries, triage threshold %.4f)\n",
			*idxPath, corpus.HNSW.Len(), corpus.Triage.Threshold)
	}
	return nil
}

// runAttack trains the detector and evaluates the eight generic attacks:
// Table III, or with -families the family misclassification tables.
func runAttack(ctx context.Context, args []string, w io.Writer) error {
	fs, cfg := configFlags("repro attack", true)
	maxSamples := fs.Int("max", 0, "cap attacked samples per method (0 = all correctly classified)")
	families := fs.Bool("families", false, "fit the family head and evaluate the eight attacks as source->target family misclassification (untargeted + targeted) instead of Table III")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *families {
		cfg.Classes = core.NumFamilyClasses
	}
	sys, err := detector(ctx, *cfg, w)
	if err != nil {
		return err
	}
	opts := attacks.Options{MaxSamples: *maxSamples}
	if *families {
		if err := printFamilyHead(w, sys); err != nil {
			return err
		}
		fmt.Fprintln(w)
		res, err := sys.RunFamilyAttacksCtx(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderFamilyAttacks(res))
		return nil
	}
	res, err := sys.RunTableIIICtx(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderTableIII(res))
	return nil
}

// runGEA trains the detector and runs the Graph Embedding and
// Augmentation experiments of Tables IV-VII.
func runGEA(ctx context.Context, args []string, w io.Writer) error {
	fs, cfg := configFlags("repro gea", true)
	noverify := fs.Bool("noverify", false, "skip per-sample functionality verification")
	if err := parse(fs, args); err != nil {
		return err
	}
	sys, err := detector(ctx, *cfg, w)
	if err != nil {
		return err
	}
	verify := !*noverify
	for _, table := range []struct {
		run             func(context.Context, bool) ([]gea.Row, error)
		render          func(bool, []gea.Row) string
		targetMalicious bool
	}{
		{sys.RunTableIVCtx, core.RenderGEASize, false},
		{sys.RunTableVCtx, core.RenderGEASize, true},
		{sys.RunTableVICtx, core.RenderGEAFixed, false},
		{sys.RunTableVIICtx, core.RenderGEAFixed, true},
	} {
		rows, err := table.run(ctx, verify)
		if err != nil {
			return err
		}
		fmt.Fprint(w, table.render(table.targetMalicious, rows))
		if verify {
			verified, total := 0, 0
			for _, r := range rows {
				verified += r.Verified
				total += r.Total
			}
			fmt.Fprintf(w, "functionality preserved on %d/%d crafted samples\n", verified, total)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// detector builds the corpus, trains the detector, and prints its
// held-out metrics.
func detector(ctx context.Context, cfg core.Config, w io.Writer) (*core.System, error) {
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return nil, err
	}
	if _, err := sys.FitCtx(ctx); err != nil {
		return nil, err
	}
	m, err := sys.EvaluateTest()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "detector: %v\n\n", m)
	return sys, nil
}

// printFamilyHead prints the family head's held-out confusion matrix and
// its collapsed binary operating point.
func printFamilyHead(w io.Writer, sys *core.System) error {
	fm, err := sys.EvaluateFamilyHead()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%scollapsed binary operating point: %v\n", fm, fm.Collapse())
	return nil
}

// loadSamples reads a corpus JSON file.
func loadSamples(path string) ([]*synth.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.LoadSamples(f)
}

// writeFile creates path and fills it with save.
func writeFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
