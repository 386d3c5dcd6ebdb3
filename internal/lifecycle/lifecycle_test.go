package lifecycle

import (
	"context"
	"sync"
	"testing"

	"advmal/internal/core"
	"advmal/internal/nn"
)

// liveModel trains one small live model for the whole test binary —
// lifecycle tests gate candidates against it, and training is the
// expensive part.
var (
	liveOnce sync.Once
	liveSys  *core.System
)

func liveSystem(t *testing.T) *core.System {
	t.Helper()
	liveOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.NumBenign = 24
		cfg.NumMal = 72
		cfg.Epochs = 25
		cfg.BatchSize = 16
		liveSys = core.New(cfg)
		if err := liveSys.BuildCorpusCtx(context.Background()); err != nil {
			panic(err)
		}
		if _, err := liveSys.FitCtx(context.Background()); err != nil {
			panic(err)
		}
	})
	return liveSys
}

func liveModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := liveSystem(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rawHoldout extracts the live system's raw test matrix — the canary
// holdout shape EvaluateCanary expects.
func rawHoldout(t *testing.T) ([][]float64, []int) {
	t.Helper()
	sys := liveSystem(t)
	raw := sys.Test.RawVectors()
	x := make([][]float64, len(raw))
	for i, v := range raw {
		x[i] = v
	}
	return x, sys.Test.Labels()
}

// TestStreamDeterministicAndDrifting pins the stream contract: the same
// seed replays the same windows (reproducible retraining cycles), and
// later windows actually mutate the malicious fraction — the drift the
// loop exists to chase.
func TestStreamDeterministicAndDrifting(t *testing.T) {
	cfg := StreamConfig{Seed: 7, NumBenign: 6, NumMal: 18, DriftRamp: 0.5}
	a, b := NewStream(cfg), NewStream(cfg)
	for w := 0; w < 3; w++ {
		sa, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(sa) != len(sb) || len(sa) != 24 {
			t.Fatalf("window %d: %d vs %d samples, want 24", w, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i].Malicious != sb[i].Malicious || sa[i].Prog.String() != sb[i].Prog.String() {
				t.Fatalf("window %d sample %d: same seed produced different samples", w, i)
			}
		}
	}
	if a.Window() != 3 {
		t.Fatalf("window counter %d, want 3", a.Window())
	}

	// Window 2 (intensity 1.0) must differ from an undrifted draw of the
	// same window seed on at least one malicious program.
	drifted := NewStream(cfg)
	clean := NewStream(StreamConfig{Seed: 7, NumBenign: 6, NumMal: 18, DriftRamp: 1e-9})
	var dw, cw []string
	for w := 0; w < 3; w++ {
		ds, err := drifted.Next()
		if err != nil {
			t.Fatal(err)
		}
		cs, err := clean.Next()
		if err != nil {
			t.Fatal(err)
		}
		dw, cw = dw[:0], cw[:0]
		for i := range ds {
			if ds[i].Malicious {
				dw = append(dw, ds[i].Prog.String())
				cw = append(cw, cs[i].Prog.String())
			}
		}
	}
	mutated := 0
	for i := range dw {
		if dw[i] != cw[i] {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("full-intensity window mutated no malicious programs — the stream does not drift")
	}
}

// TestCanaryRejectsRegressedCandidate is the acceptance-criteria test:
// an untrained candidate (coin-flip weights over the live scaler) must
// fail the accuracy gate against a trained live model, and Pass must be
// false with the violating gate reporting a negative margin.
func TestCanaryRejectsRegressedCandidate(t *testing.T) {
	live := liveModel(t)
	rawX, y := rawHoldout(t)
	cand := &core.Model{
		Scaler:    live.Scaler,
		Net:       nn.PaperCNN(99), // untrained: holdout accuracy ~ chance
		Extractor: live.Extractor,
	}
	res, err := EvaluateCanary(context.Background(), live, cand, rawX, y, Gates{AttackSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("untrained candidate passed the canary: live %s vs candidate %s", res.Live, res.Candidate)
	}
	found := false
	for _, g := range res.Gates {
		if g.Name != "accuracy" {
			continue
		}
		found = true
		if g.Pass || g.Margin >= 0 {
			t.Fatalf("accuracy gate admitted a regressed candidate: %+v", g)
		}
	}
	if !found {
		t.Fatalf("no accuracy gate in %+v", res.Gates)
	}
	if len(res.Gates) != 3 {
		t.Fatalf("AttackSamples<0 should skip evasion gates, got %d gates", len(res.Gates))
	}
}

// TestCanaryRejectsFNRRegression isolates the gate that matters most
// for a malware detector: every other threshold is fully permissive, so
// a candidate that misses malware the live model catches must be held
// out by the fnr gate alone.
func TestCanaryRejectsFNRRegression(t *testing.T) {
	live := liveModel(t)
	rawX, y := rawHoldout(t)

	// Find an untrained net that leans benign on this holdout — its FNR
	// regresses hard against the trained live model. The holdout is
	// fixed, so the chosen seed is deterministic across runs.
	liveX := make([][]float64, len(rawX))
	for i, raw := range rawX {
		v, err := live.Scaler.Transform(raw)
		if err != nil {
			t.Fatal(err)
		}
		liveX[i] = v
	}
	liveM := nn.Evaluate(live.Net, liveX, y)
	var regressor *nn.Network
	for seed := int64(50); seed < 80; seed++ {
		net := nn.PaperCNN(seed)
		if m := nn.Evaluate(net, liveX, y); m.FNR > liveM.FNR+0.5 {
			regressor = net
			break
		}
	}
	if regressor == nil {
		t.Skip("no untrained seed in range leans benign on this holdout")
	}

	cand := &core.Model{Scaler: live.Scaler, Net: regressor, Extractor: live.Extractor}
	res, err := EvaluateCanary(context.Background(), live, cand, rawX, y, Gates{
		MaxAccuracyDrop: 1, // accuracy can never violate a full-range budget
		MaxFNRIncrease:  0.05,
		MaxFPRIncrease:  1,
		AttackSamples:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("FNR-regressing candidate passed: live %s vs candidate %s", res.Live, res.Candidate)
	}
	for _, g := range res.Gates {
		switch g.Name {
		case "fnr":
			if g.Pass || g.Margin >= 0 {
				t.Fatalf("fnr gate admitted the regression: %+v", g)
			}
		case "accuracy", "fpr":
			if !g.Pass {
				t.Fatalf("permissive %s gate rejected — the fnr gate is not isolated: %+v", g.Name, g)
			}
		}
	}
}

// TestCanaryAcceptsEquivalentCandidate runs the full gate set — clean
// metrics plus the eight evasion gates — with the live model standing in
// as its own candidate sibling (a fresh snapshot of the same system).
// Identical weights must pass every gate, including evasion parity.
func TestCanaryAcceptsEquivalentCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("evasion gates craft attacks; skipped in -short")
	}
	live := liveModel(t)
	cand := liveModel(t) // same weights, fresh snapshot
	rawX, y := rawHoldout(t)
	res, err := EvaluateCanary(context.Background(), live, cand, rawX, y, Gates{AttackSamples: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("identical candidate failed the canary: %+v", res.Gates)
	}
	if len(res.Gates) <= 3 {
		t.Fatalf("evasion gates missing: only %d gates ran", len(res.Gates))
	}
	evasion := 0
	for _, g := range res.Gates {
		if len(g.Name) > 8 && g.Name[:8] == "evasion:" {
			evasion++
			if g.Live != g.Candidate {
				t.Errorf("gate %s: identical weights gave different evasion rates (%g vs %g)",
					g.Name, g.Live, g.Candidate)
			}
		}
	}
	if evasion == 0 {
		t.Fatal("no evasion gates in the full canary")
	}
}

// TestRetrainerRunOnce drives one full cycle end to end with permissive
// gates: window → warm-started candidate → canary → hot swap, with the
// handle version advancing.
func TestRetrainerRunOnce(t *testing.T) {
	live := liveModel(t)
	h := core.NewHandle(live)
	rt := &Retrainer{
		Handle: h,
		Stream: NewStream(StreamConfig{Seed: 11, NumBenign: 12, NumMal: 36}),
		Trainer: Trainer{
			Seed:      11,
			Epochs:    6,
			BatchSize: 16,
		},
		Gates: Gates{
			MaxAccuracyDrop:    1,
			MaxFNRIncrease:     1,
			MaxFPRIncrease:     1,
			MaxEvasionIncrease: 1,
			AttackSamples:      -1,
		},
		WarmStart: true,
	}
	rep, err := rt.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped {
		t.Fatalf("fully permissive gates rejected the candidate: %+v", rep.Canary.Gates)
	}
	if rep.OldVersion != 1 || rep.NewVersion != 2 || h.Version() != 2 || h.Swaps() != 1 {
		t.Fatalf("swap bookkeeping: report %d->%d, handle version %d swaps %d",
			rep.OldVersion, rep.NewVersion, h.Version(), h.Swaps())
	}
	if h.Current() == live {
		t.Fatal("handle still serves the old snapshot after a passed canary")
	}
	if rep.WindowSize == 0 || rep.Window != 0 {
		t.Fatalf("window accounting: %+v", rep)
	}
}

// TestRetrainerGatesBlockSwap wires strict gates around a candidate
// trained for one epoch on a tiny window — it cannot match the live
// model, so the cycle must report Swapped=false and the handle must
// keep serving version 1.
func TestRetrainerGatesBlockSwap(t *testing.T) {
	h := core.NewHandle(liveModel(t))
	rt := &Retrainer{
		Handle: h,
		Stream: NewStream(StreamConfig{Seed: 23, NumBenign: 8, NumMal: 24}),
		Trainer: Trainer{
			Seed:      23,
			Epochs:    1,
			BatchSize: 16,
		},
		// Strict: zero headroom on every clean gate. The one-epoch
		// cold-start candidate cannot tie a 25-epoch live model on
		// accuracy AND fnr AND fpr simultaneously.
		Gates: Gates{
			MaxAccuracyDrop: -1e-9,
			MaxFNRIncrease:  -1e-9,
			MaxFPRIncrease:  -1e-9,
			AttackSamples:   -1,
		},
		WarmStart: false,
	}
	rep, err := rt.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped {
		t.Fatalf("strict gates admitted a one-epoch candidate: live %s candidate %s",
			rep.Canary.Live, rep.Canary.Candidate)
	}
	if h.Version() != 1 || h.Swaps() != 0 {
		t.Fatalf("rejected candidate reached the handle: version %d swaps %d", h.Version(), h.Swaps())
	}
}
