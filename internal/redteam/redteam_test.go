package redteam

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"advmal/internal/core"
	"advmal/internal/features"
	"advmal/internal/nn"
	"advmal/internal/serve"
	"advmal/internal/synth"
)

// testModel builds an untrained surrogate with an identity scaler — the
// full generate/replay path without training cost.
func testModel(seed int64, classes int) *core.Model {
	min := make([]float64, features.NumFeatures)
	max := make([]float64, features.NumFeatures)
	for i := range max {
		max[i] = 1
	}
	return &core.Model{
		Version: 1,
		Classes: classes,
		Scaler:  &features.Scaler{Min: min, Max: max},
		Net:     nn.PaperCNNClasses(seed, classes),
	}
}

func smallConfig(mdl *core.Model) CampaignConfig {
	return CampaignConfig{
		Seed:    7,
		Model:   mdl,
		PerCell: 1,
		Eps:     []float64{0.3},
		Attacks: []string{"FGSM", "PGD"},
		Clean:   1,
	}
}

// TestGenerateDeterministic pins the campaign identity contract: same
// config, same items, bit for bit.
func TestGenerateDeterministic(t *testing.T) {
	mdl := testModel(0, 2)
	a, err := Generate(context.Background(), smallConfig(mdl))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), smallConfig(mdl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from the same config differ")
	}
}

// TestGenerateShape checks the campaign covers every requested axis:
// clean controls, both filtered attacks at the eps budget, GEA splices
// at all three size tiers, every malware family.
func TestGenerateShape(t *testing.T) {
	mdl := testModel(0, core.NumFamilyClasses)
	c, err := Generate(context.Background(), smallConfig(mdl))
	if err != nil {
		t.Fatal(err)
	}
	wantAttacks := map[string]bool{CleanAttack: true, "FGSM": true, "PGD": true, GEAAttack: true}
	for _, a := range c.Attacks {
		if !wantAttacks[a] {
			t.Fatalf("unexpected attack axis %q", a)
		}
		delete(wantAttacks, a)
	}
	if len(wantAttacks) != 0 {
		t.Fatalf("missing attack axes: %v", wantAttacks)
	}
	fams := map[string]bool{}
	for _, f := range c.Families {
		fams[f] = true
	}
	for _, fam := range synth.MalwareFamilies() {
		if !fams[fam.String()] {
			t.Fatalf("family %s missing from campaign", fam)
		}
	}
	budgets := map[string]bool{}
	for _, b := range c.Budgets {
		budgets[b] = true
	}
	for _, want := range []string{"-", "eps=0.30", "size=minimum", "size=median", "size=maximum"} {
		if !budgets[want] {
			t.Fatalf("budget %q missing (have %v)", want, c.Budgets)
		}
	}
	for _, it := range c.Items {
		switch it.Kind {
		case KindVector:
			if len(it.Vector) != features.NumFeatures {
				t.Fatalf("item %d: vector has %d features", it.ID, len(it.Vector))
			}
		case KindProgram:
			if it.Program == "" {
				t.Fatalf("item %d: empty program", it.ID)
			}
		}
		if it.Attack != CleanAttack && !it.Malicious {
			t.Fatalf("item %d: adversarial item with benign ground truth", it.ID)
		}
	}
}

func liveTarget(t *testing.T, h *core.Handle) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{Handle: h})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return ts
}

// TestReplayAgainstServe replays a small campaign against a live serve
// instance and checks the online scorecard end to end: every item
// answered, no transport or HTTP errors, triage marked unavailable on
// an index-less target, and the clean-control cells present.
func TestReplayAgainstServe(t *testing.T) {
	mdl := testModel(0, 2)
	c, err := Generate(context.Background(), smallConfig(mdl))
	if err != nil {
		t.Fatal(err)
	}
	ts := liveTarget(t, core.NewHandle(mdl))
	rep, err := Replay(context.Background(), c, ReplayConfig{
		Target: ts.URL, Workers: 3, Similar: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != len(c.Items) {
		t.Fatalf("sent %d of %d items", rep.Sent, len(c.Items))
	}
	if rep.TransportErrors != 0 || rep.HTTPErrors != 0 {
		t.Fatalf("errors against healthy target: transport=%d http=%d first=%q",
			rep.TransportErrors, rep.HTTPErrors, rep.FirstError)
	}
	if rep.Statuses[200] != rep.Sent {
		t.Fatalf("statuses: %v", rep.Statuses)
	}
	if !rep.Triage.Unavailable {
		t.Fatal("index-less target should report triage unavailable")
	}
	var cleanCells int
	for _, cell := range rep.Cells {
		if cell.Attack == CleanAttack {
			cleanCells++
		}
		if cell.Sent == 0 {
			t.Fatalf("empty cell %+v", cell)
		}
	}
	if cleanCells == 0 {
		t.Fatal("no clean-control cells in report")
	}
	if len(rep.Versions) == 0 {
		t.Fatal("no model-version attribution rows")
	}
	for _, v := range rep.Versions {
		if v.Version != mdl.Version {
			t.Fatalf("version attribution %d, want %d", v.Version, mdl.Version)
		}
	}
	if s := rep.String(); s == "" {
		t.Fatal("empty rendered report")
	}
}

// TestReplayDuringSwap replays concurrently with repeated hot swaps on
// the serving handle — the -race configuration for the whole wire path —
// and checks the scorecard attributes verdicts to more than one model
// version with per-attack deltas.
func TestReplayDuringSwap(t *testing.T) {
	mdl := testModel(0, 2)
	cfg := smallConfig(mdl)
	cfg.PerCell = 2
	c, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewHandle(mdl)
	ts := liveTarget(t, h)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); !stop.Load(); i++ {
			if _, err := h.Swap(testModel(i, 2)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rep, err := Replay(ctx, c, ReplayConfig{Target: ts.URL, Workers: 4}, nil)
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 || rep.HTTPErrors != 0 {
		t.Fatalf("errors during swap: transport=%d http=%d first=%q",
			rep.TransportErrors, rep.HTTPErrors, rep.FirstError)
	}
	versions := map[uint64]bool{}
	for _, v := range rep.Versions {
		versions[v.Version] = true
	}
	if len(versions) < 2 {
		t.Skip("swaps did not land mid-campaign on this run; race coverage still exercised")
	}
	if len(rep.Deltas) == 0 {
		t.Fatal("multiple versions attributed but no robustness deltas")
	}
	for _, d := range rep.Deltas {
		if d.OldVer >= d.NewVer {
			t.Fatalf("delta versions not ordered: %+v", d)
		}
	}
}

// TestScorerAccounting drives the scorer directly with fabricated
// outcomes and checks every aggregate: evasion, errors, score
// histogram, triage, and the before/after version delta.
func TestScorerAccounting(t *testing.T) {
	s := NewScorer()
	it := &Item{ID: 0, Attack: "FGSM", Family: "mirai", Budget: "eps=0.30", Malicious: true}
	// Version 1: evaded twice out of two.
	for i := 0; i < 2; i++ {
		s.Observe(Outcome{Item: it, Status: 200, Verdict: serve.Verdict{
			Malicious: false, Probs: []float64{0.85, 0.15}, ModelVersion: 1,
		}, TriageQueried: true, TriageFlagged: i == 0})
	}
	// Version 2: detected twice out of two.
	for i := 0; i < 2; i++ {
		s.Observe(Outcome{Item: it, Status: 200, Verdict: serve.Verdict{
			Malicious: true, Probs: []float64{0.2, 0.8}, ModelVersion: 2,
		}})
	}
	// One transport error and one HTTP error.
	s.Observe(Outcome{Item: it, Err: context.DeadlineExceeded})
	s.Observe(Outcome{Item: it, Status: 503})

	camp := &Campaign{
		Items:    make([]Item, 6),
		Attacks:  []string{"FGSM"},
		Families: []string{"mirai"},
		Budgets:  []string{"eps=0.30"},
	}
	rep := s.Report(camp, "http://test", time.Second)
	if rep.TransportErrors != 1 || rep.HTTPErrors != 1 {
		t.Fatalf("error counts: %+v", rep)
	}
	if rep.FirstError == "" {
		t.Fatal("first failing outcome not recorded")
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells: %+v", rep.Cells)
	}
	cell := rep.Cells[0]
	if cell.Sent != 6 || cell.Errors != 2 || cell.Evaded != 2 {
		t.Fatalf("cell accounting: %+v", cell)
	}
	if got, want := cell.EvasionRate, 0.5; got != want {
		t.Fatalf("evasion rate %v, want %v", got, want)
	}
	if cell.Hist[1] != 2 || cell.Hist[8] != 2 {
		t.Fatalf("score histogram: %v", cell.Hist)
	}
	if len(rep.Deltas) != 1 {
		t.Fatalf("deltas: %+v", rep.Deltas)
	}
	d := rep.Deltas[0]
	if d.OldRate != 1 || d.NewRate != 0 || d.Delta != 1 || !d.Improved {
		t.Fatalf("delta: %+v", d)
	}
	if rep.Triage.Queried != 2 || rep.Triage.Flagged != 1 || rep.Triage.CatchRate != 0.5 {
		t.Fatalf("triage: %+v", rep.Triage)
	}
}
