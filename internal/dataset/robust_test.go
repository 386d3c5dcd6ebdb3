package dataset

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"advmal/internal/ir"
	"advmal/internal/pool"
	"advmal/internal/pool/faultinject"
	"advmal/internal/synth"
)

// corruptSample returns a sample whose program fails validation (jump
// target out of range), so disassembly — and thus corpus conversion —
// errors for it.
func corruptSample(name string) *synth.Sample {
	return &synth.Sample{
		Name:      name,
		Malicious: true,
		Prog: &ir.Program{
			Name: name,
			Code: []ir.Instr{{Op: ir.Jmp, A: 99}, {Op: ir.Ret}},
		},
	}
}

func goodSamples(t *testing.T, n int) []*synth.Sample {
	t.Helper()
	samples, err := synth.Generate(synth.Config{Seed: 7, NumBenign: n / 2, NumMal: n - n/2})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestFromSamplesJoinsAllFailures checks a strict build reports every
// failed sample — name and index, not just the first error.
func TestFromSamplesJoinsAllFailures(t *testing.T) {
	samples := goodSamples(t, 6)
	badIdx := []int{1, 3, 5}
	for _, i := range badIdx {
		samples[i] = corruptSample(fmt.Sprintf("corrupt-%d", i))
	}
	_, _, err := FromSamplesCtx(context.Background(), samples, Options{Workers: 2})
	if err == nil {
		t.Fatal("strict build accepted corrupt samples")
	}
	fails := pool.Failures(err)
	if len(fails) != len(badIdx) {
		t.Fatalf("got %d failures, want %d: %v", len(fails), len(badIdx), err)
	}
	for k, f := range fails {
		if f.Index != badIdx[k] {
			t.Errorf("failure %d has index %d, want %d", k, f.Index, badIdx[k])
		}
		want := fmt.Sprintf("corrupt-%d", badIdx[k])
		if f.Name != want || !strings.Contains(err.Error(), want) {
			t.Errorf("failure %d: name %q (want %q); joined error: %v", k, f.Name, want, err)
		}
		if !errors.Is(f.Err, ir.ErrBadTarget) {
			t.Errorf("failure %d cause = %v, want ErrBadTarget", k, f.Err)
		}
	}
}

// TestSkipBadBuildMatchesSurvivorOnlyBuild checks graceful degradation:
// a SkipBad build over a corpus with corrupt samples produces exactly
// the dataset a clean build over only the survivors would.
func TestSkipBadBuildMatchesSurvivorOnlyBuild(t *testing.T) {
	samples := goodSamples(t, 8)
	var survivors []*synth.Sample
	mixed := make([]*synth.Sample, 0, len(samples)+2)
	for i, s := range samples {
		if i == 2 || i == 5 {
			mixed = append(mixed, corruptSample(fmt.Sprintf("corrupt-%d", i)))
		}
		mixed = append(mixed, s)
		survivors = append(survivors, s)
	}

	got, report, err := FromSamplesCtx(context.Background(), mixed, Options{Workers: 3, SkipBad: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Count() != 2 {
		t.Fatalf("skip count = %d, want 2 (%s)", report.Count(), report)
	}
	want, _, err := FromSamplesCtx(context.Background(), survivors, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("survivor dataset has %d records, want %d", got.Len(), want.Len())
	}
	for i := range want.Records {
		g, w := got.Records[i], want.Records[i]
		if g.Sample.Name != w.Sample.Name || g.Label != w.Label {
			t.Fatalf("record %d: got (%s,%d) want (%s,%d)",
				i, g.Sample.Name, g.Label, w.Sample.Name, w.Label)
		}
		for j := range w.Raw {
			if g.Raw[j] != w.Raw[j] {
				t.Fatalf("record %d feature %d differs: %v vs %v", i, j, g.Raw[j], w.Raw[j])
			}
		}
	}
}

// TestFromSamplesCancelled checks ctx cancellation aborts the build even
// with SkipBad set — cancellation is never mistaken for a skippable
// per-sample fault.
func TestFromSamplesCancelled(t *testing.T) {
	samples := goodSamples(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, _, err := FromSamplesCtx(ctx, samples, Options{Workers: 2, SkipBad: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ds != nil {
		t.Fatal("dataset returned despite cancellation")
	}
}

// TestSkipBadIsolatesInjectedPanics drives the fault-injection harness
// through the corpus build: an injected panic in one sample's conversion
// is isolated, reported, and leaves the survivors untouched.
func TestSkipBadIsolatesInjectedPanics(t *testing.T) {
	samples := goodSamples(t, 6)
	plan := faultinject.New().Panic(2, "boom in feature extraction").Error(4, errors.New("injected io fault"))
	ds, report, err := FromSamplesCtx(context.Background(), samples,
		Options{Workers: 2, SkipBad: true, Hook: plan.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if report.Count() != 2 {
		t.Fatalf("skip count = %d, want 2 (%s)", report.Count(), report)
	}
	if ds.Len() != len(samples)-2 {
		t.Fatalf("survivors = %d, want %d", ds.Len(), len(samples)-2)
	}
	var pe *pool.PanicError
	if !errors.As(report.Err(), &pe) {
		t.Fatalf("panic not surfaced as PanicError: %v", report.Err())
	}
	for _, r := range ds.Records {
		if r.Sample.Name == samples[2].Name || r.Sample.Name == samples[4].Name {
			t.Fatalf("faulted sample %s survived into the dataset", r.Sample.Name)
		}
	}
}
