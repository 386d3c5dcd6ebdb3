package core

import (
	"context"
	"errors"
	"fmt"

	"advmal/internal/attacks"
	"advmal/internal/features"
	"advmal/internal/gea"
	"advmal/internal/nn"
	"advmal/internal/synth"
)

// Report collects the reproduction of every table in the paper's
// evaluation (§IV).
type Report struct {
	// Table I: class distribution.
	NumBenign, NumMal int
	// SkippedSamples counts corpus samples isolated during the build
	// (skip-and-report); surfaced alongside Table I.
	SkippedSamples int
	// §IV-C1 detector metrics on the held-out split.
	Detector nn.Metrics
	// PaperConvention mirrors Detector with benign treated as the
	// positive class, the convention under which the paper's
	// "FNR 11.26% / FPR 1.55%" figures are internally consistent with
	// its imbalance explanation.
	PaperConvention nn.Metrics
	// Table III: the eight generic attacks.
	TableIII []attacks.Result
	// Tables IV-VII: GEA.
	TableIV  []gea.Row
	TableV   []gea.Row
	TableVI  []gea.Row
	TableVII []gea.Row
}

// TestSamples returns the synth samples of the held-out split, in record
// order. GEA attacks these, mirroring the paper's evaluation on unseen
// samples.
func (s *System) TestSamples() []*synth.Sample {
	if s.Test == nil {
		return nil
	}
	out := make([]*synth.Sample, s.Test.Len())
	for i, r := range s.Test.Records {
		out[i] = r.Sample
	}
	return out
}

// RunTableIIICtx evaluates the eight off-the-shelf attacks on the
// held-out split and returns the Table III rows. Per-sample crafting
// failures are isolated and reported in each row's Skipped column.
func (s *System) RunTableIIICtx(ctx context.Context, opts attacks.Options) ([]attacks.Result, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	if opts.Workers == 0 {
		opts.Workers = s.Config.Workers
	}
	return attacks.EvaluateCtx(ctx, s.Net, attacks.All(), s.TestX, s.TestY, opts)
}

// RunFamilyAttacksCtx re-runs the eight attacks against the family head
// as source→target misclassification: untargeted per-source-family rows
// plus the full targeted success matrix for attacks with explicit
// targets. Requires a family-head system (Config.Classes ==
// NumFamilyClasses).
func (s *System) RunFamilyAttacksCtx(ctx context.Context, opts attacks.Options) ([]attacks.FamilyResult, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	if s.Net.NumClasses() != NumFamilyClasses {
		return nil, fmt.Errorf("core: family attacks: model has %d classes, want %d",
			s.Net.NumClasses(), NumFamilyClasses)
	}
	if opts.Workers == 0 {
		opts.Workers = s.Config.Workers
	}
	return attacks.EvaluateFamiliesCtx(ctx, s.Net, attacks.All(), s.TestX, s.TestY, opts)
}

// GEAPipeline returns a GEA crafting pipeline bound to the trained
// detector. verify enables per-sample functionality verification.
func (s *System) GEAPipeline(verify bool) (*gea.Pipeline, error) {
	if s.Net == nil {
		return nil, ErrNotTrained
	}
	return &gea.Pipeline{
		Net:       s.Net,
		Scaler:    s.Scaler,
		Extractor: s.Extractor,
		Workers:   s.Config.Workers,
		Verify:    verify,
	}, nil
}

// RunTableIVCtx reproduces Table IV: malware->benign GEA with benign
// targets of minimum, median, and maximum graph size. Targets are drawn
// from the full corpus (the adversary may pick any benign sample);
// originals are the held-out malware samples.
func (s *System) RunTableIVCtx(ctx context.Context, verify bool) ([]gea.Row, error) {
	p, err := s.GEAPipeline(verify)
	if err != nil {
		return nil, err
	}
	return p.RunSizeExperimentCtx(ctx, s.TestSamples(), s.Samples, false)
}

// RunTableVCtx reproduces Table V: benign->malware GEA with malware
// targets.
func (s *System) RunTableVCtx(ctx context.Context, verify bool) ([]gea.Row, error) {
	p, err := s.GEAPipeline(verify)
	if err != nil {
		return nil, err
	}
	return p.RunSizeExperimentCtx(ctx, s.TestSamples(), s.Samples, true)
}

// RunTableVICtx reproduces Table VI: malware->benign GEA with benign
// targets at fixed node counts and varying edge counts (3 groups x 3
// targets on the full corpus; reduced corpora degrade to smaller group
// shapes).
func (s *System) RunTableVICtx(ctx context.Context, verify bool) ([]gea.Row, error) {
	return s.runFixedNodes(ctx, verify, false)
}

// RunTableVIICtx reproduces Table VII: benign->malware GEA at fixed node
// counts.
func (s *System) RunTableVIICtx(ctx context.Context, verify bool) ([]gea.Row, error) {
	return s.runFixedNodes(ctx, verify, true)
}

// runFixedNodes runs the fixed-node experiment at the paper's 3x3 shape,
// falling back to smaller shapes when a reduced corpus lacks enough
// same-node-count targets with distinct edge counts. A corpus with no
// such group even at 2x2 gets an empty table (RenderGEAFixed notes why),
// not an error that would discard every table computed before it.
func (s *System) runFixedNodes(ctx context.Context, verify, targetMalicious bool) ([]gea.Row, error) {
	p, err := s.GEAPipeline(verify)
	if err != nil {
		return nil, err
	}
	for _, shape := range [][2]int{{3, 3}, {3, 2}, {2, 2}} {
		rows, err := p.RunFixedNodesExperimentCtx(
			ctx, s.TestSamples(), s.Samples, targetMalicious, shape[0], shape[1])
		if !errors.Is(err, gea.ErrNoFixedNodeGroups) {
			return rows, err
		}
	}
	return nil, nil
}

// RunAllOptions configures RunAllCtx.
type RunAllOptions struct {
	// Attacks configures the Table III harness.
	Attacks attacks.Options
	// VerifyGEA enables interpreter-trace verification on every GEA
	// sample.
	VerifyGEA bool
}

// RunAllCtx builds the corpus (if needed), trains the detector (if
// needed), and reproduces Tables I and III-VII plus the detector metrics.
// Cancelling ctx stops the run between stages and between items within a
// stage.
func (s *System) RunAllCtx(ctx context.Context, opts RunAllOptions) (*Report, error) {
	if s.Data == nil {
		if err := s.BuildCorpusCtx(ctx); err != nil {
			return nil, err
		}
	}
	if s.Net == nil {
		if _, err := s.FitCtx(ctx); err != nil {
			return nil, err
		}
	}
	rep := &Report{SkippedSamples: s.Skips.Count()}
	rep.NumBenign, rep.NumMal = s.Data.CountByLabel()
	var err error
	if rep.Detector, err = s.EvaluateTest(); err != nil {
		return nil, err
	}
	rep.PaperConvention = mirrorConvention(rep.Detector)
	if rep.TableIII, err = s.RunTableIIICtx(ctx, opts.Attacks); err != nil {
		return nil, fmt.Errorf("core: table III: %w", err)
	}
	if rep.TableIV, err = s.RunTableIVCtx(ctx, opts.VerifyGEA); err != nil {
		return nil, fmt.Errorf("core: table IV: %w", err)
	}
	if rep.TableV, err = s.RunTableVCtx(ctx, opts.VerifyGEA); err != nil {
		return nil, fmt.Errorf("core: table V: %w", err)
	}
	if rep.TableVI, err = s.RunTableVICtx(ctx, opts.VerifyGEA); err != nil {
		return nil, fmt.Errorf("core: table VI: %w", err)
	}
	if rep.TableVII, err = s.RunTableVIICtx(ctx, opts.VerifyGEA); err != nil {
		return nil, fmt.Errorf("core: table VII: %w", err)
	}
	return rep, nil
}

// mirrorConvention swaps the FNR/FPR naming to the benign-positive
// convention the paper's §IV-C1 figures follow.
func mirrorConvention(m nn.Metrics) nn.Metrics {
	m.FNR, m.FPR = m.FPR, m.FNR
	return m
}

// FeatureGroups returns the Table II rows: category name and feature
// count.
func FeatureGroups() []struct {
	Name  string
	Count int
} {
	groups := features.Groups()
	out := make([]struct {
		Name  string
		Count int
	}, 0, len(groups))
	for _, g := range groups {
		out = append(out, struct {
			Name  string
			Count int
		}{g.String(), g.Size()})
	}
	return out
}

// ClassDistribution returns the Table I rows as (class, count, percent).
func (s *System) ClassDistribution() ([]struct {
	Class   string
	Count   int
	Percent float64
}, error) {
	if s.Data == nil {
		return nil, ErrNotBuilt
	}
	benign, malware := s.Data.CountByLabel()
	total := benign + malware
	rows := []struct {
		Class   string
		Count   int
		Percent float64
	}{
		{"Benign", benign, float64(benign) / float64(total)},
		{"Malicious", malware, float64(malware) / float64(total)},
		{"Total", total, 1},
	}
	return rows, nil
}
