package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"advmal/internal/core"
	"advmal/internal/index"
	"advmal/internal/ir"
	"advmal/internal/pool"
	"advmal/internal/serve"
)

// tiny is a corpus and training budget small enough to run every stage in
// well under a second; the GEA stages (bare and gea) need the larger
// corpus, which holds same-node-count targets for Tables VI and VII.
var (
	tiny    = []string{"-seed", "1", "-benign", "6", "-malware", "9"}
	tinyGEA = []string{"-seed", "1", "-benign", "20", "-malware", "30", "-epochs", "1"}
)

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestEverySubcommandRuns(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.json")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{append([]string{"corpus", "-out", corpus, "-csv", filepath.Join(dir, "f.csv")}, tiny...),
			[]string{"TABLE I:", "§III analysis", "Per-family structure", "corpus written to", "features written to"}},
		{[]string{"corpus", "-in", corpus, "-top", "3"}, []string{"TABLE I:", " 3. "}},
		{append([]string{"train", "-epochs", "1"}, tiny...), []string{"corpus: ", "Fig. 5 architecture", "test AUC"}},
		{append([]string{"train", "-epochs", "1", "-families"}, tiny...), []string{"Family head confusion", "collapsed binary operating point"}},
		{append([]string{"attack", "-epochs", "1", "-max", "1"}, tiny...), []string{"detector: ", "TABLE III:"}},
		{append([]string{"attack", "-epochs", "1", "-max", "1", "-families"}, tiny...), []string{"Family head confusion", "targeted success rate"}},
		{append([]string{"gea"}, tinyGEA...), []string{"TABLE IV:", "TABLE V:", "TABLE VI:", "TABLE VII:", "functionality preserved"}},
		{append([]string{"-max", "1", "-noverify"}, tinyGEA...), []string{"TABLE I:", "TABLE II:", "TABLE III:", "TABLE VII:", "total wall time"}},
	} {
		out := runArgs(t, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("repro %s: output lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
			}
		}
	}
}

// TestSmallCorpusPrintsEveryTable runs every stage on a corpus too small
// for Table VII: no node count has two malware targets of distinct edge
// counts, so the table prints empty with a note, and the run still
// prints every table it computed and succeeds.
func TestSmallCorpusPrintsEveryTable(t *testing.T) {
	out := runArgs(t, "-seed", "1", "-benign", "15", "-malware", "25", "-epochs", "1", "-max", "1", "-noverify")
	for _, want := range []string{"TABLE I:", "TABLE II:", "TABLE III:", "TABLE IV:", "TABLE V:", "TABLE VI:", "TABLE VII:", "total wall time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	_, vii, _ := strings.Cut(out, "TABLE VII:")
	if !strings.Contains(vii, "(no rows: no node count has two targets") {
		t.Errorf("Table VII is not noted empty:\n%s", out)
	}
}

// TestTrainWritesDeployableDetector checks train -model writes the
// core.Model envelope every serving command loads — cmd/classify reads it
// and agrees with the in-process verdict — and train -index a similarity
// corpus index.Load reads.
func TestTrainWritesDeployableDetector(t *testing.T) {
	dir := t.TempDir()
	model, idx := filepath.Join(dir, "det.gob"), filepath.Join(dir, "corpus.gob")
	runArgs(t, append([]string{"train", "-epochs", "1", "-model", model, "-index", idx}, tiny...)...)

	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatalf("core.LoadModel on train -model output: %v", err)
	}
	fi, err := os.Open(idx)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := index.Load(fi)
	fi.Close()
	if err != nil {
		t.Fatalf("index.Load on train -index output: %v", err)
	}
	if corpus.HNSW.Len() == 0 {
		t.Error("similarity index is empty")
	}

	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go command at %s", gobin)
	}
	classify := filepath.Join(dir, "classify")
	if out, err := exec.Command(gobin, "build", "-o", classify, "advmal/cmd/classify").CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/classify: %v\n%s", err, out)
	}
	const text = "movi r0, 1\nmovi r1, 2\nadd r0, r1\nret\n"
	prog := filepath.Join(dir, "ok.asm")
	if err := os.WriteFile(prog, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(classify, "-json", "-model", model, prog).Output()
	if err != nil {
		t.Fatalf("classify -json -model %s: %v", model, err)
	}
	var v serve.Verdict
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("classify output is not a verdict: %q: %v", out, err)
	}
	p, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pred, probs, err := det.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != pred || v.Confidence != probs[pred] {
		t.Errorf("classify verdict %+v, in-process class %d probs %v", v, pred, probs)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	err := run(context.Background(), []string{"stats"}, &strings.Builder{})
	if err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	for _, name := range []string{"stats", "corpus", "train", "attack", "gea"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

func TestCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, stage := range []string{"corpus", "train", "attack", "gea", ""} {
		args := append([]string{stage}, tiny...)
		if stage == "" {
			args = tiny
		}
		err := run(ctx, args, &strings.Builder{})
		if !pool.Cancelled(err) {
			t.Errorf("repro %q under a cancelled ctx: err = %v, want cancellation", stage, err)
		}
	}
}
