// Package advmal is a from-scratch Go reproduction of "Adversarial
// Learning Attacks on Graph-based IoT Malware Detection Systems"
// (Abusnaina et al., ICDCS 2019).
//
// The package is a thin facade over the subsystems in internal/:
//
//   - internal/graph: directed-graph substrate and centrality algorithms
//   - internal/ir: executable program substrate (assembler, disassembler,
//     interpreter) standing in for compiled IoT binaries + Radare2
//   - internal/synth: synthetic IoT software corpus (Table I)
//   - internal/features: the 23 CFG features (Table II), scaler, validator
//   - internal/nn: the Fig. 5 CNN, trainer, metrics
//   - internal/attacks: the eight generic attacks (Table III)
//   - internal/gea: Graph Embedding and Augmentation (Tables IV-VII)
//   - internal/core: the end-to-end system and experiment runners
//
// Quickstart:
//
//	sys := advmal.NewSystem(advmal.DefaultConfig())
//	if err := sys.BuildCorpusCtx(ctx); err != nil { ... }
//	if _, err := sys.FitCtx(ctx); err != nil { ... }
//	metrics, _ := sys.EvaluateTest()
//	rows, _ := sys.RunTableIVCtx(ctx, true) // GEA malware->benign
//
// Every pipeline stage takes a context (BuildCorpusCtx, FitCtx,
// RunTableIIICtx, RunTableIVCtx to RunTableVIICtx, RunAllCtx) for
// cancellation and deadlines.
// Samples that fail during the corpus build are isolated, recorded in
// System.Skips, and skipped unless Config.StrictCorpus is set.
package advmal

import (
	"advmal/internal/attacks"
	"advmal/internal/core"
	"advmal/internal/dataset"
	"advmal/internal/gea"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// Core system facade.
type (
	// System is the end-to-end detection system under attack.
	System = core.System
	// Config controls the full pipeline.
	Config = core.Config
	// Report holds the reproduction of every evaluation table.
	Report = core.Report
	// Metrics holds accuracy / FNR / FPR.
	Metrics = nn.Metrics
	// AttackResult is one Table III row.
	AttackResult = attacks.Result
	// GEARow is one Tables IV-VII row.
	GEARow = gea.Row
	// Sample is one corpus program.
	Sample = synth.Sample
	// SkipReport accounts for samples isolated and skipped during a
	// corpus build (System.Skips).
	SkipReport = dataset.SkipReport
)

// NewSystem returns an unbuilt System with cfg.
func NewSystem(cfg Config) *System { return core.New(cfg) }

// DefaultConfig returns the paper's configuration (Table I corpus, Fig. 5
// CNN, 200 epochs, batch 100).
func DefaultConfig() Config { return core.DefaultConfig() }

// AllAttacks returns the paper's eight generic attacks in Table III order.
func AllAttacks() []attacks.Attack { return attacks.All() }
