package gea

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"advmal/internal/features"
	"advmal/internal/ir"
	"advmal/internal/nn"
	"advmal/internal/pool"
	"advmal/internal/synth"
)

// Pipeline crafts GEA adversarial samples against a trained detector:
// merge -> disassemble -> extract features -> scale -> classify. It owns
// no state beyond references to the trained model and scaler and is safe
// for use from a single goroutine (it clones the network internally for
// its own worker fan-out).
type Pipeline struct {
	Net    *nn.Network
	Scaler *features.Scaler
	// Extractor serves every crafting path's feature extraction through
	// the fused sweep engine and its content-keyed cache, so repeated
	// candidate graphs — e.g. MinimizeTargetSize probing the same
	// truncation, or the same original/target pair across experiments —
	// are extracted once. nil uses the process-wide features.Shared.
	Extractor *features.Extractor
	// Workers is the per-target crafting parallelism; 0 = GOMAXPROCS.
	Workers int
	// Verify enables the interpreter-trace equivalence check on every
	// crafted sample (the functionality-preservation property).
	Verify bool
	// VerifyInputs are the probe inputs used when Verify is set; nil
	// selects synth.ProbeInputs.
	VerifyInputs [][]int64
	// Hook is the pool fault-injection hook, for tests.
	Hook pool.Hook
}

// Row is one row of Tables IV-VII: one target graph evaluated against
// every original sample of the opposite class.
type Row struct {
	Label       SizeLabel     `json:"label,omitempty"`
	TargetName  string        `json:"target"`
	TargetNodes int           `json:"nodes"`
	TargetEdges int           `json:"edges"`
	Total       int           `json:"total"`
	Misclass    int           `json:"misclassified"`
	MR          float64       `json:"mr"`
	AvgCT       time.Duration `json:"avg_ct"`
	Verified    int           `json:"verified"` // functionality-preserving count
	// Skipped counts originals whose crafting failed (merge, disassembly,
	// scaling, verification, or a panic); they are isolated and excluded
	// from Total and every aggregate.
	Skipped int `json:"skipped,omitempty"`
	// SkipReasons lists one line per skipped original.
	SkipReasons []string `json:"skip_reasons,omitempty"`
}

// String renders the row like the paper's GEA tables.
func (r Row) String() string {
	label := string(r.Label)
	if label == "" {
		label = r.TargetName
	}
	s := fmt.Sprintf("%-8s nodes=%4d edges=%4d MR=%6.2f%% CT=%9.3fms (n=%d, verified=%d)",
		label, r.TargetNodes, r.TargetEdges, r.MR*100,
		float64(r.AvgCT.Microseconds())/1000, r.Total, r.Verified)
	if r.Skipped > 0 {
		s += fmt.Sprintf(" [skipped=%d]", r.Skipped)
	}
	return s
}

// RunTargetCtx crafts one GEA adversarial sample per original on the
// shared worker pool and measures how many flip to the class opposite
// their true one. origs must all share a true class; wantLabel is that
// class's opposite (the adversary's goal). Crafting time covers the full
// pipeline per sample: merge, disassembly, feature extraction, scaling,
// and classification, which is why CT grows with target size as in the
// paper.
//
// An original whose crafting fails (a merge/disassembly/scaling error, a
// failed functionality verification, or a panic in a stage) is isolated,
// recorded in Row.Skipped and Row.SkipReasons, and excluded from the
// aggregates; the row completes on the survivors. The returned error is
// non-nil only when ctx is cancelled.
func (p *Pipeline) RunTargetCtx(ctx context.Context, origs []*synth.Sample, target *synth.Sample, wantLabel int) (Row, error) {
	row := Row{
		TargetName:  target.Name,
		TargetNodes: target.Nodes,
		TargetEdges: target.Edges,
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(origs) && len(origs) > 0 {
		workers = len(origs)
	}
	verifyInputs := p.VerifyInputs
	if p.Verify && verifyInputs == nil {
		verifyInputs = synth.ProbeInputs()
	}
	type outcome struct {
		ok       bool
		mis      bool
		verified bool
		ct       time.Duration
	}
	outs := make([]outcome, len(origs))
	// One shared-weight view plus workspace per worker so the classify
	// probe inside craftOne runs on the zero-allocation engine.
	wss := make([]*nn.Workspace, workers)
	for w := range wss {
		wss[w] = p.Net.CloneShared().WS()
	}
	err := pool.Run(ctx, len(origs), pool.Options{
		Workers: workers,
		Hook:    p.Hook,
		Name:    func(i int) string { return origs[i].Name },
	}, func(_ context.Context, w, i int) error {
		o := p.craftOne(wss[w], origs[i], target, wantLabel, verifyInputs)
		if o.err != nil {
			return o.err
		}
		outs[i] = outcome{ok: true, mis: o.mis, verified: o.verified, ct: o.ct}
		return nil
	})
	if ctx.Err() != nil {
		return row, fmt.Errorf("gea: target %q: %w", target.Name, err)
	}
	for _, f := range pool.Failures(err) {
		row.Skipped++
		row.SkipReasons = append(row.SkipReasons,
			fmt.Sprintf("%s vs target %s: %v", f.Name, target.Name, f.Err))
	}
	var ctSum int64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		row.Total++
		if o.mis {
			row.Misclass++
		}
		if o.verified {
			row.Verified++
		}
		ctSum += int64(o.ct)
	}
	if row.Total > 0 {
		row.MR = float64(row.Misclass) / float64(row.Total)
		row.AvgCT = time.Duration(ctSum / int64(row.Total))
	}
	return row, nil
}

func (p *Pipeline) craftOne(eng nn.Engine, orig, target *synth.Sample, wantLabel int, verifyInputs [][]int64) (o struct {
	mis      bool
	verified bool
	ct       time.Duration
	err      error
}) {
	t0 := time.Now()
	merged, err := Merge(orig.Prog, target.Prog)
	if err != nil {
		o.err = err
		return o
	}
	cfg, err := ir.Disassemble(merged)
	if err != nil {
		o.err = err
		return o
	}
	raw := p.Extractor.Extract(cfg.G())
	scaled, err := p.Scaler.Transform(raw)
	if err != nil {
		o.err = err
		return o
	}
	pred := eng.Predict(scaled)
	o.ct = time.Since(t0)
	o.mis = pred == wantLabel
	if verifyInputs != nil {
		if err := VerifyEquivalent(orig.Prog, merged, verifyInputs); err != nil {
			o.err = err
			return o
		}
		o.verified = true
	}
	return o
}

// RunSizeExperimentCtx reproduces Table IV (malware->benign when
// targetMalicious is false) or Table V (benign->malware when true): the
// minimum-, median-, and maximum-size target of the target class is
// merged with every original of the opposite class.
func (p *Pipeline) RunSizeExperimentCtx(ctx context.Context, origs, targetPool []*synth.Sample, targetMalicious bool) ([]Row, error) {
	targets, err := SelectBySize(targetPool, targetMalicious)
	if err != nil {
		return nil, err
	}
	wantLabel := nn.ClassBenign
	if targetMalicious {
		wantLabel = nn.ClassMalware
	}
	origSet := filter(origs, !targetMalicious)
	if len(origSet) == 0 {
		return nil, ErrNoSamples
	}
	rows := make([]Row, 0, 3)
	for _, t := range targets.Rows() {
		row, err := p.RunTargetCtx(ctx, origSet, t.Sample, wantLabel)
		if err != nil {
			return nil, err
		}
		row.Label = t.Label
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFixedNodesExperimentCtx reproduces Table VI (targetMalicious=false,
// malware->benign) or Table VII (targetMalicious=true): for each of
// numGroups node counts, perGroup targets with distinct edge counts are
// merged with every original of the opposite class.
func (p *Pipeline) RunFixedNodesExperimentCtx(ctx context.Context, origs, targetPool []*synth.Sample, targetMalicious bool, numGroups, perGroup int) ([]Row, error) {
	groups, err := SelectFixedNodes(targetPool, targetMalicious, numGroups, perGroup)
	if err != nil {
		return nil, err
	}
	wantLabel := nn.ClassBenign
	if targetMalicious {
		wantLabel = nn.ClassMalware
	}
	origSet := filter(origs, !targetMalicious)
	if len(origSet) == 0 {
		return nil, ErrNoSamples
	}
	var rows []Row
	for _, g := range groups {
		for _, t := range g.Samples {
			row, err := p.RunTargetCtx(ctx, origSet, t, wantLabel)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
