package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"advmal/internal/core"
	"advmal/internal/index"
)

// buildDir is where everything the benchmark builds or writes while it
// runs lives, relative to the repository root. The root .gitignore
// names it.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the directory whose
// go.mod declares module advmal: the benchmark is run from the root of a
// checkout (the driver) or from benchmark/ (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module advmal\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module advmal above the working directory")
		}
		dir = parent
	}
}

// buildServers compiles the real cmd/serve and cmd/gateway into
// <root>/.bench_build/bin. The build is outside every clock except
// setup.go_build_s.
func buildServers(ctx context.Context, root string) (serveBin, gatewayBin string, took time.Duration, err error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/serve", "./cmd/gateway")
	cmd.Dir = root
	cmd.Env = buildEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", 0, fmt.Errorf("go build ./cmd/serve ./cmd/gateway: %w\n%s", err, out)
	}
	return filepath.Join(bin, "serve"), filepath.Join(bin, "gateway"), time.Since(start), nil
}

// buildEnv keeps the go tool's cache inside the checkout unless the
// caller already chose one, and keeps it off the network.
func buildEnv(root string) []string {
	env := os.Environ()
	if os.Getenv("GOCACHE") == "" {
		env = append(env, "GOCACHE="+filepath.Join(root, buildDir, "gocache"))
	}
	return append(env, "GOPROXY=off", "GOTOOLCHAIN=local")
}

// newRunDir makes this run's private directory under .bench_build; the
// caller removes it.
func newRunDir(root string) (string, error) {
	parent := filepath.Join(root, buildDir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// fixture is what every workload starts from: the trained system, the
// two artefacts cmd/serve loads, and the model as the oracle loads it.
type fixture struct {
	sys       *core.System
	modelPath string
	indexPath string
	model     *core.Model   // core.LoadModel(det.gob): the oracle's and the replay's model
	corpus    *index.Corpus // index.Load(corpus.gob)

	modelLoad time.Duration
	indexLoad time.Duration
}

// buildFixture rebuilds the fixture from the seed: nothing is committed,
// because the gob envelope is scheduled to change. The server receives
// only generated inputs, never the seed.
func buildFixture(ctx context.Context, seed int64, dir string) (*fixture, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Epochs = 3
	cfg.EarlyStopLoss = 0
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return nil, fmt.Errorf("fixture: corpus: %w", err)
	}
	if _, err := sys.FitCtx(ctx); err != nil {
		return nil, fmt.Errorf("fixture: fit: %w", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fixture: snapshot: %w", err)
	}
	fx := &fixture{
		sys:       sys,
		modelPath: filepath.Join(dir, "det.gob"),
		indexPath: filepath.Join(dir, "corpus.gob"),
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		return nil, fmt.Errorf("fixture: save model: %w", err)
	}
	if err := os.WriteFile(fx.modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	corpus, err := sys.BuildCorpusIndex(index.HNSWConfig{}, 0)
	if err != nil {
		return nil, fmt.Errorf("fixture: index: %w", err)
	}
	buf.Reset()
	if err := corpus.Save(&buf); err != nil {
		return nil, fmt.Errorf("fixture: save index: %w", err)
	}
	if err := os.WriteFile(fx.indexPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := fx.load(); err != nil {
		return nil, err
	}
	return fx, nil
}

// load reads the two artefacts back the way cmd/serve does, timing each.
func (fx *fixture) load() error {
	raw, err := os.ReadFile(fx.modelPath)
	if err != nil {
		return err
	}
	start := time.Now()
	fx.model, err = core.LoadModel(bytes.NewReader(raw))
	fx.modelLoad = time.Since(start)
	if err != nil {
		return fmt.Errorf("fixture: load model: %w", err)
	}
	raw, err = os.ReadFile(fx.indexPath)
	if err != nil {
		return err
	}
	start = time.Now()
	fx.corpus, err = index.Load(bytes.NewReader(raw))
	fx.indexLoad = time.Since(start)
	if err != nil {
		return fmt.Errorf("fixture: load index: %w", err)
	}
	return nil
}

// conditions is the stamp every run's output carries: a number counts
// only with the conditions it was measured under.
type conditions struct {
	Commit      string   `json:"commit"`
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Kernel      string   `json:"kernel"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Clients     int      `json:"clients"`
	ServerFlags []string `json:"server_flags,omitempty"`

	// Counts and payload statistics, fixed by the seed; only the phase
	// the clock ends ("timed") and how many of its replies got the full
	// oracle comparison depend on how many requests fit.
	Phases   []phaseCount       `json:"phases"`
	Payload  map[string]float64 `json:"payload"`
	Verified int                `json:"verified_against_oracle"`
}

// phaseCount is requests (or operations) sent, answered OK and failed in
// one phase of a run.
type phaseCount struct {
	Phase  string `json:"phase"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

func newConditions(root, workload string, seed int64, seconds float64) *conditions {
	c := &conditions{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Clients:    loadClients,
		Payload:    map[string]float64{},
	}
	// The ceiling keeps git from looking for a repository above the
	// checkout: a checkout that is not one stamps "unknown".
	git := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		c.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		c.Kernel = strings.TrimSpace(string(raw))
	}
	return c
}
