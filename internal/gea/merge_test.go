package gea

import (
	"errors"
	"testing"

	"advmal/internal/ir"
	"advmal/internal/synth"
)

func mustMerge(t *testing.T, orig, target *ir.Program) *ir.Program {
	t.Helper()
	m, err := Merge(orig, target)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return m
}

func TestMergeFigures(t *testing.T) {
	orig := figOriginal(t)
	target := figTarget(t)
	merged := mustMerge(t, orig, target)

	origCFG, err := ir.Disassemble(orig)
	if err != nil {
		t.Fatal(err)
	}
	targetCFG, err := ir.Disassemble(target)
	if err != nil {
		t.Fatal(err)
	}
	mergedCFG, err := ir.Disassemble(merged)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 structure: original blocks + target blocks + shared entry +
	// shared exit.
	wantNodes := origCFG.G().N() + targetCFG.G().N() + 2
	if mergedCFG.G().N() != wantNodes {
		t.Errorf("merged nodes = %d, want %d", mergedCFG.G().N(), wantNodes)
	}
	g := mergedCFG.G()
	// The entry block (0) has exactly two successors: the original body
	// (fallthrough) and the target body (opaque-predicate branch).
	if g.OutDegree(0) != 2 {
		t.Errorf("entry out-degree = %d, want 2", g.OutDegree(0))
	}
	// The shared exit is the last block, ends in ret, no successors.
	exit := g.N() - 1
	if g.OutDegree(exit) != 0 {
		t.Errorf("exit out-degree = %d, want 0", g.OutDegree(exit))
	}
	// Exit is reached from both subgraphs: at least two predecessors.
	if g.InDegree(exit) < 2 {
		t.Errorf("exit in-degree = %d, want >= 2 (shared exit)", g.InDegree(exit))
	}
	// Every block is reachable from the shared entry in the CFG, even
	// though the target body never executes.
	for v, d := range g.BFSFrom(0) {
		if d < 0 {
			t.Errorf("block %d unreachable from shared entry", v)
		}
	}
}

func TestMergePreservesFunctionality(t *testing.T) {
	orig := figOriginal(t)
	merged := mustMerge(t, orig, figTarget(t))
	if err := VerifyEquivalent(orig, merged, synth.ProbeInputs()); err != nil {
		t.Fatalf("VerifyEquivalent: %v", err)
	}
	// The target body must NOT execute: the merged trace has the same
	// step count as the original plus the 3-instruction stub plus the
	// final jump-to-exit replacement cost.
	it := &ir.Interp{}
	origTr, err := it.Run(orig)
	if err != nil {
		t.Fatal(err)
	}
	mergedTr, err := it.Run(merged)
	if err != nil {
		t.Fatal(err)
	}
	// stub (3) + ret rewritten to jmp (+1 for the extra hop to the
	// shared exit's ret) = exactly 4 extra steps.
	if mergedTr.Steps != origTr.Steps+4 {
		t.Errorf("merged steps = %d, want %d+5 (target body must not run)",
			mergedTr.Steps, origTr.Steps)
	}
}

func TestMergeIsSymmetricallyUsable(t *testing.T) {
	// Merging in the opposite direction also works and preserves the
	// *other* program's behaviour.
	orig := figTarget(t)
	merged := mustMerge(t, orig, figOriginal(t))
	if err := VerifyEquivalent(orig, merged, synth.ProbeInputs()); err != nil {
		t.Fatalf("reverse merge: %v", err)
	}
}

func TestMergeRejectsInvalidPrograms(t *testing.T) {
	valid := figOriginal(t)
	if _, err := Merge(&ir.Program{}, valid); err == nil {
		t.Error("Merge accepted invalid original")
	}
	if _, err := Merge(valid, &ir.Program{}); err == nil {
		t.Error("Merge accepted invalid target")
	}
}

func TestMergeDoesNotMutateInputs(t *testing.T) {
	orig := figOriginal(t)
	target := figTarget(t)
	origLen, targetLen := len(orig.Code), len(target.Code)
	origJle := orig.Code[3]
	mustMerge(t, orig, target)
	if len(orig.Code) != origLen || len(target.Code) != targetLen {
		t.Fatal("Merge changed input program lengths")
	}
	if orig.Code[3] != origJle {
		t.Fatal("Merge rewrote the original's jump targets in place")
	}
}

func TestVerifyEquivalentDetectsDivergence(t *testing.T) {
	orig := figOriginal(t)
	broken := orig.Clone()
	// Change the loop bound: result differs.
	broken.Code[2].B = 5
	err := VerifyEquivalent(orig, broken, synth.ProbeInputs())
	if !errors.Is(err, ErrNotEquivalent) {
		t.Errorf("VerifyEquivalent = %v, want ErrNotEquivalent", err)
	}
}

func TestVerifyEquivalentRunErrors(t *testing.T) {
	orig := figOriginal(t)
	if err := VerifyEquivalent(&ir.Program{}, orig, synth.ProbeInputs()); err == nil {
		t.Error("VerifyEquivalent accepted invalid original")
	}
	if err := VerifyEquivalent(orig, &ir.Program{}, synth.ProbeInputs()); err == nil {
		t.Error("VerifyEquivalent accepted invalid merged program")
	}
}

// TestMergeEquivalenceOverCorpus is the paper's functionality-preservation
// claim checked as a property over generated samples: any corpus program
// merged with any other keeps its observable behaviour.
func TestMergeEquivalenceOverCorpus(t *testing.T) {
	samples, err := synth.Generate(synth.Config{Seed: 11, NumBenign: 15, NumMal: 30})
	if err != nil {
		t.Fatal(err)
	}
	inputs := synth.ProbeInputs()
	pairs := 0
	for i := 0; i < len(samples) && pairs < 40; i += 3 {
		j := (i*7 + 5) % len(samples)
		if i == j {
			continue
		}
		merged, err := Merge(samples[i].Prog, samples[j].Prog)
		if err != nil {
			t.Fatalf("Merge(%s,%s): %v", samples[i].Name, samples[j].Name, err)
		}
		if err := VerifyEquivalent(samples[i].Prog, merged, inputs); err != nil {
			t.Fatalf("equivalence broken for %s + %s: %v",
				samples[i].Name, samples[j].Name, err)
		}
		pairs++
	}
	if pairs == 0 {
		t.Fatal("no pairs tested")
	}
}

// TestMergeNodeAccounting: merged CFG sizes follow orig + target + 2 for
// arbitrary corpus programs, not just the figure examples.
func TestMergeNodeAccounting(t *testing.T) {
	samples, err := synth.Generate(synth.Config{Seed: 13, NumBenign: 6, NumMal: 12})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k+1 < len(samples) && k < 10; k += 2 {
		orig, target := samples[k], samples[k+1]
		merged, err := Merge(orig.Prog, target.Prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ir.Disassemble(merged)
		if err != nil {
			t.Fatal(err)
		}
		want := orig.Nodes + target.Nodes + 2
		if cfg.G().N() != want {
			t.Errorf("%s+%s: merged nodes %d, want %d",
				orig.Name, target.Name, cfg.G().N(), want)
		}
	}
}

func TestFigurePrograms(t *testing.T) {
	it := &ir.Interp{}
	tr, err := it.Run(figOriginal(t))
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 2 loop counts 0 -> 10.
	if tr.Result != 10 {
		t.Errorf("fig2 result = %d, want 10", tr.Result)
	}
	tr, err = it.Run(figTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 leaves 10 in r4 but never moves it to r0.
	if tr.Result != 0 {
		t.Errorf("fig3 result = %d, want 0", tr.Result)
	}
}
